let[@inline] mask w =
  if w < 0 || w > 64 then invalid_arg "Bits.mask";
  if w = 64 then -1L else Int64.sub (Int64.shift_left 1L w) 1L

let[@inline] get x ~lo ~width =
  Int64.logand (Int64.shift_right_logical x lo) (mask width)

let[@inline] set x ~lo ~width v =
  let m = Int64.shift_left (mask width) lo in
  let v = Int64.shift_left (Int64.logand v (mask width)) lo in
  Int64.logor (Int64.logand x (Int64.lognot m)) v

let[@inline] field x ~lo ~width = (x lsr lo) land ((1 lsl width) - 1)

let popcount x =
  let rec loop x acc =
    if x = 0L then acc
    else loop (Int64.logand x (Int64.sub x 1L)) (acc + 1)
  in
  loop x 0
