(* Order statistics over the samples one benchmark run collects. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks (the "inclusive" rule of
   Python's statistics.quantiles); its median is statistics.median. *)
let quantile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n = 1 then a.(0)
  else begin
    let pos = p *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = Int.min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
  end

let median xs = quantile xs 0.5

let minimum xs = quantile xs 0.

(* The highest percentile that still has at least ten samples above
   it, but never below p80 (so a short run of ~10 jobs reports p80,
   not its fastest job), as [(value, percentile)]. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (Float.nan, 100.)
  else begin
    let p80 = int_of_float (Float.ceil (0.8 *. float_of_int n)) in
    let rank = Int.max 1 (Int.min n (Int.max (n - 10) p80)) in
    (a.(rank - 1), Float.floor (100. *. float_of_int rank /. float_of_int n))
  end

let sum xs = List.fold_left ( +. ) 0. xs

let max_abs xs = List.fold_left (fun m x -> Float.max m (Float.abs x)) 0. xs
