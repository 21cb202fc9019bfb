let region_mb = 8
let stores = 20_000
let ceiling = 3 * 1024 * 1024

let stored_region crash_support =
  let size = region_mb * 1024 * 1024 in
  let r =
    Nvm.Region.create
      {
        Nvm.Config.default with
        Nvm.Config.size_bytes = size;
        extlog_bytes = 1024 * 1024;
        crash_support;
      }
  in
  let rng = Util.Rng.create ~seed:1 in
  for _ = 1 to stores do
    Nvm.Region.write_int r (8 * Util.Rng.int rng (size / 8)) 0x5eed
  done;
  r

let precise_extra_bytes () =
  let words r = Obj.reachable_words (Obj.repr r) in
  let precise = stored_region Nvm.Config.Precise in
  let counting = stored_region Nvm.Config.Counting in
  (8 * (words precise - words counting)) + Nvm.Region.record_bytes precise
