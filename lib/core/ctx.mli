(** Shared context of the durability hooks and the recovery procedures:
    the region, the epoch manager and the external log. The InCLL events
    (Figure 7 reports the logging behaviour they record) are counted in
    the region's metric registry, each at one site below. *)

type t = {
  region : Nvm.Region.t;
  em : Epoch.Manager.t;
  log : Extlog.Log.t;
  m_incll_hit : int ref;
      (** Registry counter ["incll_hit"]: modifications absorbed in-line
          (first touches + value-InCLL uses and hits). *)
  m_incll_fallback : int ref;
      (** Registry counter ["incll_fallback"]: nodes that went to the
          external log (Figure 7's logged-node count). *)
  m_first_touch : int ref;  (** Registry counter ["incll_first_touch"]. *)
  m_val_use : int ref;  (** Registry counter ["incll.val_use"]. *)
  m_val_hit : int ref;  (** Registry counter ["incll.val_hit"]. *)
  m_fallback : int ref array;
      (** Registry counters ["incll.fallback.<cause>"], by {!fallback}. *)
  m_lazy_recovery : int ref;  (** Registry counter ["incll.lazy_recovery"]. *)
}

(** Why a node went to the external log instead of its InCLLs; counted
    in ["incll.fallback.mixed"], [".update"], [".epoch_distance"] and
    [".structural"]. *)
type fallback =
  | Mixed  (** a delete followed by an insert in one epoch (§4.1.1) *)
  | Update
      (** both value InCLLs of a line were needed, or value InCLLs are
          disabled (§4.1.3) *)
  | Epoch_distance
      (** 16 bits could not encode the epoch distance (§4.1.3; about once
          an hour in the paper) *)
  | Structural  (** splits, removals and root changes (§4.2) *)

val make : Epoch.Manager.t -> Extlog.Log.t -> t

(** {1 Figure-7 accounting} One call per event. *)

val note_first_touch : t -> leaf:int -> unit
(** A leaf's first modification of the epoch, absorbed by InCLLp: bumps
    ["incll_hit"] and ["incll_first_touch"]. *)

val note_val_use : t -> unit
(** A value update absorbed by a value InCLL: bumps ["incll_hit"] and
    ["incll.val_use"]. *)

val note_val_hit : t -> unit
(** A same-epoch re-update of an already-logged slot (free): bumps
    ["incll_hit"] and ["incll.val_hit"]. *)

val note_fallback : t -> fallback -> leaf:int -> unit
(** A node logged externally: bumps ["incll_fallback"] and
    ["incll.fallback.<cause>"]. *)

val note_lazy_recovery : t -> unit
(** A leaf rolled back on first access after a crash: bumps
    ["incll.lazy_recovery"]. *)

val log_node : t -> addr:int -> size:int -> unit
(** Append to the external log; on a full log, force a checkpoint (which
    truncates it) and retry, so the append always lands in the epoch that
    is current when it returns. *)

val current : t -> int
val lower16 : int -> int
val higher : int -> int
