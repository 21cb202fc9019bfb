(** Host memory that Precise crash support costs, as a deterministic
    count a ceiling can gate (bin/microbench and the tier-1 tests check
    {!ceiling}).

    Two regions of {!region_mb} MiB, one Precise and one Counting, take
    the same fixed sequence of 20,000 random word stores (seed 1, no
    write-back). The count is the per-line record array of the Precise
    one ({!Nvm.Region.record_bytes}, off the OCaml heap) plus every OCaml
    heap byte reachable from it beyond what the Counting one reaches
    ([Obj.reachable_words]), so it covers the pending-store journal and
    any field a later change adds to Precise regions, not a hand-kept
    list of them. It is the same on every host and build. *)

val region_mb : int

val precise_extra_bytes : unit -> int

val ceiling : int
(** 3 MiB. A second full image (8 MiB) or 8 more bytes of per-line
    record (1 MiB) exceeds it. *)
