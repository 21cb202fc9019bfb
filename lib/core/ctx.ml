type t = {
  region : Nvm.Region.t;
  em : Epoch.Manager.t;
  log : Extlog.Log.t;
  (* The Figure-7 split: every modification the InCLL machinery absorbs
     bumps [m_incll_hit]; every node that falls back on the external log
     bumps [m_incll_fallback]. Each also bumps the counter of its kind. *)
  m_incll_hit : int ref;
  m_incll_fallback : int ref;
  m_first_touch : int ref;
  m_val_use : int ref;
  m_val_hit : int ref;
  m_fallback : int ref array;
  m_lazy_recovery : int ref;
}

type fallback = Mixed | Update | Epoch_distance | Structural

let fallback_name = function
  | Mixed -> "mixed"
  | Update -> "update"
  | Epoch_distance -> "epoch_distance"
  | Structural -> "structural"

let fallback_index = function
  | Mixed -> 0
  | Update -> 1
  | Epoch_distance -> 2
  | Structural -> 3

let make em log =
  let region = Epoch.Manager.region em in
  let m = Nvm.Region.metrics region in
  let c = Obs.Registry.counter m in
  {
    region;
    em;
    log;
    m_incll_hit = c "incll_hit";
    m_incll_fallback = c "incll_fallback";
    m_first_touch = c "incll_first_touch";
    m_val_use = c "incll.val_use";
    m_val_hit = c "incll.val_hit";
    m_fallback =
      Array.map
        (fun f -> c ("incll.fallback." ^ fallback_name f))
        [| Mixed; Update; Epoch_distance; Structural |];
    m_lazy_recovery = c "incll.lazy_recovery";
  }

(* The trace payloads are built only while tracing, so the op path
   allocates nothing for them. *)
let note_first_touch t ~leaf =
  incr t.m_incll_hit;
  incr t.m_first_touch;
  if Nvm.Region.tracing t.region then
    Nvm.Region.trace_event t.region (Obs.Trace.Incll_first_touch { leaf })

let note_val_use t =
  incr t.m_incll_hit;
  incr t.m_val_use

let note_val_hit t =
  incr t.m_incll_hit;
  incr t.m_val_hit

let note_fallback t cause ~leaf =
  incr t.m_incll_fallback;
  incr (Array.unsafe_get t.m_fallback (fallback_index cause));
  if Nvm.Region.tracing t.region then
    Nvm.Region.trace_event t.region (Obs.Trace.Incll_fallback { leaf })

let note_lazy_recovery t = incr t.m_lazy_recovery

let current t = Epoch.Manager.current t.em
let lower16 = Epoch.Manager.lower16
let higher = Epoch.Manager.higher

let rec log_node t ~addr ~size =
  try Extlog.Log.append t.log ~epoch:(current t) ~addr ~size
  with Extlog.Log.Log_full ->
    (* A checkpoint truncates the log; the entry then lands in the new
       epoch, which is also the epoch the pending modification will run
       in (no mutation has happened yet when a pre-hook logs). *)
    Epoch.Manager.advance t.em;
    log_node t ~addr ~size
