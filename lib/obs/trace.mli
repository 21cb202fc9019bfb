(** Bounded ring of persistence-relevant events, stamped with the
    simulated clock.

    Events are instants with typed payloads, plus the op-track slices
    the interval recorder ({!Stall}) writes as its intervals close: the
    Perfetto exporter ({!Perfetto}) draws those as duration slices.

    Disabled by default: a disabled ring costs one branch per call site,
    so the hot paths (clwb, sfence) can record unconditionally. When the
    ring is full the oldest event is overwritten and counted as dropped —
    tracing never grows memory or perturbs a long run. *)

type payload =
  | Clwb of { line : int }  (** Asynchronous write-back initiation. *)
  | Crash
  | Extlog_append of { bytes : int }
  | Extlog_replay of { entries : int }
  | Incll_first_touch of { leaf : int }
  | Incll_fallback of { leaf : int }
  | Custom of { kind : string; arg : int }
      (** Escape hatch for one-off events; prefer a typed constructor. *)
  | Slice of { name : string; dur_ns : float; label : string; arg : int }
      (** An interval that ended at the event's stamp, [dur_ns] long (a
          checkpoint, an sfence, a recovery phase, ...), with one
          argument named [label] (none when [""]). *)

type event = { ts_ns : float; payload : payload }

val kind : payload -> string
(** Stable display name, e.g. ["clwb"], ["crash"], or a slice's name. *)

val arg : payload -> int
(** The payload's primary integer (line id, lines drained, epoch, ...) —
    the [string * int] view the JSON dump uses. *)

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 4096 events. *)

val capacity : t -> int
val enabled : t -> bool
val set_enabled : t -> bool -> unit

val record : t -> ts_ns:float -> payload -> unit
(** No-op while disabled. *)

val length : t -> int
(** Events currently held (≤ capacity). *)

val total : t -> int
(** Events recorded since creation/clear, including overwritten ones. *)

val dropped : t -> int

val to_list : t -> event list
(** Oldest first. *)

val clear : t -> unit

val to_json : t -> Json.t
(** [{"total","dropped","events":[{ts_ns,kind,arg}]}]. Reading the ring
    is non-destructive; callers that want a fresh window call {!clear}
    explicitly. *)
