(** Shared provenance header for every emitted JSON report
    ([tq_load --json], the Stats breakdown view, [BENCH_breakdown.json]). *)

(** [json_fields ()] — the two header lines ["schema_version": N,] and
    ["generated_at": "YYYY-MM-DDTHH:MM:SSZ",] (UTC, now), each indented
    two spaces and newline-terminated, ready to splice right after a
    report's opening brace. *)
val json_fields : unit -> string
