exception Heap_full

exception
  Corrupt_chain of { head : int; at : int; steps : int; reason : string }

type t = {
  region : Nvm.Region.t;
  em : Epoch.Manager.t;
  heap_start : int;
  heap_end : int;
  limbo_tails : int array;  (* transient; 0 = unknown/empty *)
  mutable visited : Bytes.t;
      (* chain-walk cycle guard: one bit per 64-byte heap slot, all clear
         between walks; allocated by the first walk *)
  marked : Util.Ivec.t;  (* the chunks the current walk has marked *)
  (* Counters of the region's metric registry: *)
  c_allocs : int ref;  (* "alloc.allocs" *)
  c_freelist_allocs : int ref;  (* "alloc.freelist_allocs" *)
  c_quarantined : int ref;  (* "alloc.quarantined_chains" *)
}

let corrupt ~head ~at ~steps reason =
  raise (Corrupt_chain { head; at; steps; reason })

(* Cheap structural sanity for a [next] pointer before we chase it: 0 is
   the list terminator; anything else must be a 64-aligned heap address.
   Catches wild pointers from cross-linked lines immediately instead of
   letting the walk wander into unrelated metadata. *)
let check_link t ~head ~at ~steps next =
  if next <> 0 then begin
    if next < t.heap_start || next >= t.heap_end then
      corrupt ~head ~at ~steps "next pointer out of heap bounds";
    if next land 63 <> 0 then
      corrupt ~head ~at ~steps "next pointer not 64-byte aligned"
  end

let bump_line = Nvm.Layout.off_bump
let free_line cls = Nvm.Layout.alloc_class_free_line cls
let limbo_line cls = Nvm.Layout.alloc_class_limbo_line cls

let bump_position t = Meta_line.head t.region ~line:bump_line

let current t = Epoch.Manager.current t.em
let marker t = Epoch.Manager.first_epoch_of_run t.em

(* Lazy chunk-header recovery (§5.1): restore [next] from [nextInCLL] when
   the header's counters are torn or its epoch failed. *)
let recover_chunk t chunk =
  let e = Chunk_header.read_epoch t.region ~chunk in
  if e < 0 || (e < marker t && Epoch.Manager.is_failed t.em e) then
    Chunk_header.restore t.region ~chunk ~marker_epoch:(marker t)

let chunk_next t chunk =
  recover_chunk t chunk;
  Chunk_header.read_next t.region ~chunk

(* First-touch discipline before modifying a chunk's [next] in this epoch. *)
let touch_chunk t chunk =
  recover_chunk t chunk;
  Chunk_header.first_touch t.region ~chunk ~epoch:(current t)

let set_meta_head t ~line v =
  Meta_line.touch t.region ~line ~epoch:(current t);
  Meta_line.set_head t.region ~line v

(* Quarantine (leak-don't-crash degradation): when a chain walk proves
   the chain corrupt, unlink the whole chain by zeroing its head. Every
   block on it leaks, but the allocator and the store stay usable; the
   count is surfaced through the "alloc.quarantined_chains" counter (and
   so recover_stats) so CI can fail red on it. *)
let quarantine_chain t ~line exn =
  (match exn with
  | Corrupt_chain { head; at; steps; reason } ->
      Nvm.Region.trace_event t.region
        (Obs.Trace.Custom { kind = "alloc_quarantine"; arg = head });
      ignore (at, steps, reason)
  | _ -> ());
  set_meta_head t ~line 0;
  incr t.c_quarantined

(* Cycle guard of the chain walks: chunks are 64-aligned heap addresses
   ([check_link] proves it before one is marked), so bit
   [(c - heap_start) / 64] stands for chunk [c]. [mark] returns whether
   it was already set. *)
let mark t c =
  if Bytes.length t.visited = 0 then
    t.visited <- Bytes.make ((((t.heap_end - t.heap_start) lsr 6) lsr 3) + 1) '\000';
  let i = (c - t.heap_start) lsr 6 in
  let byte = Char.code (Bytes.unsafe_get t.visited (i lsr 3)) in
  let bit = 1 lsl (i land 7) in
  byte land bit <> 0
  || begin
       Bytes.unsafe_set t.visited (i lsr 3) (Char.unsafe_chr (byte lor bit));
       Util.Ivec.push t.marked c;
       false
     end

let clear_marks t =
  for j = 0 to Util.Ivec.length t.marked - 1 do
    let i = (Util.Ivec.get t.marked j - t.heap_start) lsr 6 in
    Bytes.unsafe_set t.visited (i lsr 3) '\000'
  done;
  Util.Ivec.clear t.marked

(* Guarded chain walk: calls [f] on each chunk from [head], raising
   [Corrupt_chain] on a wild head, a cycle, an out-of-bounds link or a
   mis-aligned link instead of walking forever. The visited set is a
   reusable bitmap, cleared through the list of chunks the walk marked:
   the walks run on the recovery and validation paths (and the limbo
   merge after a crash lost its transient tail, over every chunk freed
   in the last epoch), never on the alloc/dealloc fast path. *)
let iter_chain t head f =
  if head <> 0 then begin
    check_link t ~head ~at:0 ~steps:0 head;
    let rec loop c steps =
      f c;
      let next = chunk_next t c in
      check_link t ~head ~at:c ~steps next;
      if next <> 0 then begin
        if mark t next then corrupt ~head ~at:c ~steps "cycle in chain";
        loop next (steps + 1)
      end
    in
    ignore (mark t head : bool);
    match loop head 0 with
    | () -> clear_marks t
    | exception e ->
        clear_marks t;
        raise e
  end

(* Checkpoint subscriber: splice each limbo list onto its free list. Runs
   inside the new epoch, so every store is first-touch logged and a crash
   rolls the merge back atomically with the rest of the epoch. *)
let merge_limbo t () =
  let stalls = Nvm.Region.stalls t.region in
  for cls = 0 to Size_class.count - 1 do
    let lhead = Meta_line.head t.region ~line:(limbo_line cls) in
    if lhead <> 0 then begin
      Chaos.Plan.fire Chaos.Site.Merge_limbo;
      Obs.Stall.enter stalls Obs.Stall.Limbo_merge;
      (match
         if t.limbo_tails.(cls) <> 0 then Ok t.limbo_tails.(cls)
         else
           (* Transient tail lost in a crash: walk the chain. *)
           try
             let tail = ref 0 in
             iter_chain t lhead (fun c -> tail := c);
             Ok !tail
           with Corrupt_chain _ as e -> Error e
       with
      | Ok tail ->
          let fhead = Meta_line.head t.region ~line:(free_line cls) in
          touch_chunk t tail;
          Chunk_header.write_next t.region ~chunk:tail ~next:fhead;
          set_meta_head t ~line:(free_line cls) lhead;
          set_meta_head t ~line:(limbo_line cls) 0
      | Error e -> quarantine_chain t ~line:(limbo_line cls) e);
      Obs.Stall.exit stalls
    end;
    t.limbo_tails.(cls) <- 0
  done

let make region em =
  let cfg = Nvm.Region.config region in
  let m = Nvm.Region.metrics region in
  {
    region;
    em;
    heap_start = Nvm.Layout.heap_off cfg;
    heap_end = cfg.Nvm.Config.size_bytes;
    limbo_tails = Array.make Size_class.count 0;
    visited = Bytes.empty;
    marked = Util.Ivec.create ();
    c_allocs = Obs.Registry.counter m "alloc.allocs";
    c_freelist_allocs = Obs.Registry.counter m "alloc.freelist_allocs";
    c_quarantined = Obs.Registry.counter m "alloc.quarantined_chains";
  }

let create em =
  let region = Epoch.Manager.region em in
  let t = make region em in
  let e = current t in
  let cfg = Nvm.Region.config region in
  Meta_line.init region ~line:bump_line ~head:(Nvm.Layout.heap_off cfg)
    ~epoch:e;
  for cls = 0 to Size_class.count - 1 do
    Meta_line.init region ~line:(free_line cls) ~head:0 ~epoch:e;
    Meta_line.init region ~line:(limbo_line cls) ~head:0 ~epoch:e
  done;
  Epoch.Manager.subscribe_post_advance em (merge_limbo t);
  t

let open_after_crash em =
  let region = Epoch.Manager.region em in
  let t = make region em in
  let is_failed = Epoch.Manager.is_failed em in
  let m = marker t in
  Meta_line.recover region ~line:bump_line ~is_failed ~marker:m;
  for cls = 0 to Size_class.count - 1 do
    Meta_line.recover region ~line:(free_line cls) ~is_failed ~marker:m;
    Meta_line.recover region ~line:(limbo_line cls) ~is_failed ~marker:m
  done;
  Epoch.Manager.subscribe_post_advance em (merge_limbo t);
  t

let alloc ?(aligned = false) t ~size =
  let cls =
    if aligned then Size_class.class_of_aligned_payload size
    else Size_class.class_of_payload size
  in
  let head = Meta_line.head t.region ~line:(free_line cls) in
  incr t.c_allocs;
  if head <> 0 then begin
    (* Pop: only the head moves; the chunk's own header is untouched, so
       rollback of this epoch re-links the chunk exactly as it was. *)
    let next = chunk_next t head in
    set_meta_head t ~line:(free_line cls) next;
    incr t.c_freelist_allocs;
    Size_class.payload_of_chunk ~chunk:head ~aligned
  end
  else begin
    let bump = Meta_line.head t.region ~line:bump_line in
    let sz = Size_class.chunk_size cls in
    if bump + sz > t.heap_end then raise Heap_full;
    (* Bump slow path: carving and initializing a fresh chunk header is
       first-touch logged, markedly slower than the freelist pop. *)
    let stalls = Nvm.Region.stalls t.region in
    Obs.Stall.enter stalls Obs.Stall.Alloc_slow;
    set_meta_head t ~line:bump_line (bump + sz);
    Chunk_header.init t.region ~chunk:bump ~epoch:(current t) ~cls;
    Obs.Stall.exit stalls;
    Size_class.payload_of_chunk ~chunk:bump ~aligned
  end

let dealloc t payload =
  let chunk = Size_class.chunk_of_payload payload in
  recover_chunk t chunk;
  let cls = Chunk_header.read_class t.region ~chunk in
  if cls < 0 || cls >= Size_class.count then
    invalid_arg "Durable.dealloc: not an allocator chunk";
  let lhead = Meta_line.head t.region ~line:(limbo_line cls) in
  touch_chunk t chunk;
  Chunk_header.write_next t.region ~chunk ~next:lhead;
  set_meta_head t ~line:(limbo_line cls) chunk;
  if lhead = 0 then t.limbo_tails.(cls) <- chunk

let payload_capacity_of t payload =
  let chunk = Size_class.chunk_of_payload payload in
  Size_class.payload_capacity ~cls:(Chunk_header.read_class t.region ~chunk)
    ~aligned:(payload land 63 = 0)

let recover_all_chains t =
  for cls = 0 to Size_class.count - 1 do
    let eager line =
      try iter_chain t (Meta_line.head t.region ~line) (fun _ -> ())
      with Corrupt_chain _ as e -> quarantine_chain t ~line e
    in
    eager (free_line cls);
    eager (limbo_line cls)
  done

let count_chain t head =
  let n = ref 0 in
  iter_chain t head (fun _ -> incr n);
  !n

let free_count t ~cls = count_chain t (Meta_line.head t.region ~line:(free_line cls))
let limbo_count t ~cls = count_chain t (Meta_line.head t.region ~line:(limbo_line cls))

let check_chains t =
  for cls = 0 to Size_class.count - 1 do
    let check c =
      let got = Chunk_header.read_class t.region ~chunk:c in
      if got <> cls then
        failwith
          (Printf.sprintf
             "Durable.check_chains: chunk %d in class-%d list has class %d" c
             cls got)
    in
    iter_chain t (Meta_line.head t.region ~line:(free_line cls)) check;
    iter_chain t (Meta_line.head t.region ~line:(limbo_line cls)) check
  done

let forget_limbo_tails t = Array.fill t.limbo_tails 0 Size_class.count 0

type chain_error = { cls : int; kind : string; head : int; detail : string }

type report = {
  free_chunks : int;
  limbo_chunks : int;
  errors : chain_error list;
}

(* Full allocator invariant check (the fsck entry point): every free and
   limbo chain must be acyclic and in-bounds, every chunk header must
   agree with its chain's size class, every chunk must lie inside
   [heap_start, bump), and no chunk may be reachable from two chains.
   Collects every violation instead of stopping at the first. *)
let validate t =
  let errors = ref [] in
  let owner : (int, int * string) Hashtbl.t = Hashtbl.create 256 in
  let bump = bump_position t in
  let free_chunks = ref 0 and limbo_chunks = ref 0 in
  for cls = 0 to Size_class.count - 1 do
    List.iter
      (fun (kind, line, counter) ->
        let head = Meta_line.head t.region ~line in
        let err detail = errors := { cls; kind; head; detail } :: !errors in
        try
          iter_chain t head (fun c ->
              incr counter;
              (match Hashtbl.find_opt owner c with
              | Some (ocls, okind) ->
                  err
                    (Printf.sprintf
                       "chunk %d also reachable from the %s chain of class %d"
                       c okind ocls)
              | None -> Hashtbl.add owner c (cls, kind));
              let got = Chunk_header.read_class t.region ~chunk:c in
              if got <> cls then
                err
                  (Printf.sprintf
                     "chunk %d header claims class %d, chain is class %d" c
                     got cls);
              if c < t.heap_start || c + Size_class.chunk_size cls > bump then
                err
                  (Printf.sprintf "chunk %d outside [heap start, bump)" c))
        with Corrupt_chain { at; steps; reason; _ } ->
          err
            (Printf.sprintf "corrupt chain after %d steps at chunk %d: %s"
               steps at reason))
      [
        ("free", free_line cls, free_chunks);
        ("limbo", limbo_line cls, limbo_chunks);
      ]
  done;
  {
    free_chunks = !free_chunks;
    limbo_chunks = !limbo_chunks;
    errors = List.rev !errors;
  }
