(* Shared provenance header for every emitted JSON report: a
   schema_version, bumped whenever a report's field meanings change
   incompatibly, and generated_at, when the numbers were measured
   (ISO-8601 UTC). *)

let schema_version = 2

let json_fields () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf
    "  \"schema_version\": %d,\n  \"generated_at\": \"%04d-%02d-%02dT%02d:%02d:%02dZ\",\n"
    schema_version (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
    tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec
