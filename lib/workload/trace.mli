(** Trace-driven workloads: record and replay operation logs as text
    files, so downstream users can benchmark and debug against their own
    access patterns rather than synthetic YCSB mixes.

    Format — one operation per line, fields separated by single spaces,
    keys/values percent-encoded (space, newline, CR and '%' as %XX):

    {v
    PUT <key> <value>
    GET <key>
    DEL <key>
    SCAN <start> <count>
    # comments and blank lines are ignored
    v} *)

type op = Put of string * string | Get of string | Del of string | Scan of string * int

val parse_line : string -> op option
(** [None] for blank/comment lines; raises [Failure] on malformed input
    (naming the offending line). *)

val load : string -> op list
(** Parse a trace file. *)

val save : string -> op list -> unit
(** Write a trace file (inverse of {!load}). *)

val apply : Incll.System.t -> op -> unit
(** Execute one traced operation (results of reads are discarded). *)

val encode_field : string -> string
val decode_field : string -> string
