(** A minimal HTTP/1.1 exposition sidecar for the live server: the
    plain-text plane scrapers and humans expect next to the binary RPC
    plane.

    Serves exactly three GET endpoints, the first two rendered by the
    server's Stats RPC renderer ({!Server.render_stats}), so both
    planes serve the same bytes:

    - [/metrics] — the [Stats_text] view, Prometheus text exposition
      ([text/plain; version=0.0.4]);
    - [/outliers] — the [Stats_outliers] view (every retained dossier)
      as JSON; with tail forensics off, [404] carrying the RPC's error
      message;
    - [/healthz] — [200 ok] while serving, [503 draining] once
      {!Server.stop} has been called ({!Server.draining}).

    One accept thread plus one short-lived thread per connection;
    every response carries [Connection: close].  This is a
    control-plane sidecar with scrape-rate traffic — it never touches
    the RPC data path, its threads never block a lane or a worker. *)

type t

(** [start ?host ~port server] binds (default loopback; [port = 0]
    picks an ephemeral port, see {!port}), starts the accept thread and
    returns immediately.  Views render on per-connection threads; the
    {!Server} views are safe from any thread.  Raises [Unix.Unix_error]
    on e.g. a busy port. *)
val start : ?host:string -> port:int -> Server.t -> t

(** The actually bound port — the [port] given to {!start} unless that
    was 0. *)
val port : t -> int

(** [stop t] closes the listening socket and joins the accept thread;
    idempotent.  In-flight per-connection threads finish their single
    response on their own. *)
val stop : t -> unit
