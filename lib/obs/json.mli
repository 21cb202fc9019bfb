(** A minimal JSON value type, serializer and parser (hand-rolled — the
    repo takes no external JSON dependency). Enough for emitting metrics
    and bench tables, and for reading them back ([bin/bench_compare], the
    Perfetto-export well-formedness tests). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering. *)

val to_string_pretty : t -> string
(** Two-space-indented rendering, for files meant to be read by humans. *)

(** {1 Parsing} *)

exception Parse_error of string
(** Carries a human-readable message with the byte offset of the error. *)

val of_string : string -> t
(** Parse one JSON document (trailing whitespace allowed, nothing else).
    Numbers without [.], [e] or [E] become {!Int}; all others {!Float}.
    Raises {!Parse_error} on malformed input. *)

val of_string_opt : string -> t option

(** {1 Accessors} *)

val find : t -> string -> t option
(** Field lookup; [None] when the value is not an object or lacks the
    field. *)

val find_path : t -> string list -> t option
(** Nested {!find}. *)

val to_float_opt : t -> float option
(** {!Int} and {!Float} both convert; everything else is [None]. *)
