(* Per-layer measurement from outside the libraries: a counting wrapper
   around a circuit's DAE closures, self-time arithmetic over recorded
   spans, and timed replays of the linear-algebra and FFT kernels at a
   workload's own shapes. *)

open Linalg
module Obs = Wampde_obs

(* ---------- circuit: wrapped Dae.t closures ---------- *)

type dae_acc = {
  mutable calls : int;
  mutable self_s : float;
  mutable words : float;
  mutable depth : int;
  by_scope : (string, float ref) Hashtbl.t;
      (* self seconds per innermost Obs scope label at the call site *)
}

let new_acc () = { calls = 0; self_s = 0.; words = 0.; depth = 0; by_scope = Hashtbl.create 8 }

let scope_s acc label =
  match Hashtbl.find_opt acc.by_scope label with Some r -> !r | None -> 0.

(* Nested calls (a closure that calls another) are billed once, to the
   outermost; calls from pool workers run untouched, since the
   accumulator is not synchronized. *)
let metered acc f =
  if acc.depth > 0 || not (Domain.is_main_domain ()) then f ()
  else begin
    acc.depth <- 1;
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    let settle () =
      let dt = Unix.gettimeofday () -. t0 in
      acc.depth <- 0;
      acc.calls <- acc.calls + 1;
      acc.self_s <- acc.self_s +. dt;
      acc.words <- acc.words +. (Gc.minor_words () -. w0);
      let label = Option.value (Obs.Scope.current ()) ~default:"" in
      match Hashtbl.find_opt acc.by_scope label with
      | Some r -> r := !r +. dt
      | None -> Hashtbl.add acc.by_scope label (ref dt)
    in
    match f () with
    | r ->
      settle ();
      r
    | exception e ->
      settle ();
      raise e
  end

let wrap acc (d : Dae.t) : Dae.t =
  {
    d with
    q = (fun x -> metered acc (fun () -> d.q x));
    f = (fun ~t x -> metered acc (fun () -> d.f ~t x));
    dq = (fun x -> metered acc (fun () -> d.dq x));
    df = (fun ~t x -> metered acc (fun () -> d.df ~t x));
  }

(* ---------- spans ---------- *)

type span_total = { count : int; seconds : float; words : float }

let dur (r : Obs.Span.record) = r.t_stop -. r.t_start

let words (r : Obs.Span.record) =
  match r.gc with Some g -> Obs.Span.allocated_words g | None -> 0.

let total name spans =
  List.fold_left
    (fun acc (r : Obs.Span.record) ->
      if r.name = name then
        { count = acc.count + 1; seconds = acc.seconds +. dur r; words = acc.words +. words r }
      else acc)
    { count = 0; seconds = 0.; words = 0. }
    spans

(* Spans that run below a span named [root]. *)
let below ~root spans =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun (r : Obs.Span.record) -> Hashtbl.replace by_id r.id r) spans;
  let rec under (r : Obs.Span.record) =
    match Option.bind r.parent (Hashtbl.find_opt by_id) with
    | None -> false
    | Some p -> p.name = root || under p
  in
  List.filter under spans

(* Self seconds per span name: each span's duration minus that of its
   direct children on the same trace track. *)
let self_seconds spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun (r : Obs.Span.record) ->
      match r.parent with
      | Some p when r.tid = 1 ->
        Hashtbl.replace child p (dur r +. Option.value (Hashtbl.find_opt child p) ~default:0.)
      | _ -> ())
    spans;
  let self = Hashtbl.create 64 in
  List.iter
    (fun (r : Obs.Span.record) ->
      let own = dur r -. Option.value (Hashtbl.find_opt child r.id) ~default:0. in
      Hashtbl.replace self r.name (own +. Option.value (Hashtbl.find_opt self r.name) ~default:0.))
    spans;
  List.of_seq (Hashtbl.to_seq self)

(* Seconds spent in [inner] spans that run below an [outer] span. *)
let nested_seconds ~outer ~inner spans =
  List.fold_left
    (fun s (r : Obs.Span.record) -> if r.name = inner then s +. dur r else s)
    0. (below ~root:outer spans)

(* ---------- kernel replays ---------- *)

type kernel = {
  k_name : string;  (* per-layer metric name *)
  shape : string;
  us : float;  (* median microseconds per call *)
  flops : float;  (* computed from the shape, not counted *)
  bytes : float;  (* computed compulsory traffic, not measured *)
}

(* Median microseconds per call over five batches, each sized to run
   at least [batch_s]. *)
let us_per_call ?(batch_s = 0.02) f =
  f ();
  let reps = ref 1 in
  let elapsed () =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to !reps do
      f ()
    done;
    Unix.gettimeofday () -. t0
  in
  while elapsed () < batch_s do
    reps := !reps * 2
  done;
  Stats.median (List.init 5 (fun _ -> elapsed () /. float_of_int !reps)) *. 1e6

let log2 x = Float.log x /. Float.log 2.

let fft_cost n =
  let nf = float_of_int n in
  if Fourier.Fft.is_power_of_two n then (5. *. nf *. log2 nf, 32. *. nf)
  else begin
    (* Bluestein: two forward and one inverse power-of-two transform
       of size m, plus the chirp products *)
    let m = float_of_int (Fourier.Fft.next_power_of_two ((2 * n) - 1)) in
    ((15. *. m *. log2 m) +. (18. *. m), (32. *. nf) +. (48. *. m))
  end

(* Replays the collocation kernels at the workload's shapes: the
   operator [alpha (D (x) C) + blockdiag(B)] of one trapezoidal slow
   step of size [h2] from the orbit, its block preconditioner, the
   bordered dense Jacobian the dense path factors, and the FFT at
   [n1]. *)
let replay ~(dae : Dae.t) ~(orbit : Steady.Oscillator.orbit) ~h2 =
  let n = dae.dim and n1 = Array.length orbit.grid in
  let theta = 0.5 in
  let states = orbit.grid in
  let d = Fourier.Series.diff_matrix n1 in
  let cs = Array.map dae.dq states in
  let b_blocks =
    Array.mapi
      (fun j x ->
        let g = dae.df ~t:0. x in
        Mat.init n n (fun i l -> cs.(j).(i).(l) +. (h2 *. theta *. g.(i).(l))))
      states
  in
  let op =
    Structured.make_op ~alpha:(h2 *. theta *. orbit.omega) ~d ~c_blocks:cs ~b_blocks
  in
  let nd = n1 * n in
  let v = Array.init nd (fun i -> sin (float_of_int (i + 1))) in
  let out = Array.make nd 0. in
  let dft = Fourier.Fft.structured_dft in
  let pc = Structured.make_precond ~dft op in
  let dense =
    let a = Structured.to_dense op in
    let qs = Array.map dae.q states in
    Array.init (nd + 1) (fun row ->
        if row < nd then begin
          let j = row / n and i = row mod n in
          let s = ref 0. in
          for k = 0 to n1 - 1 do
            s := !s +. (d.(j).(k) *. qs.(k).(i))
          done;
          Array.append a.(row) [| h2 *. theta *. !s |]
        end
        else
          (* phase row: d x_0 / d t1 at t1 = 0 *)
          Array.init (nd + 1) (fun c -> if c < nd && c mod n = 0 then d.(0).(c / n) else 0.))
  in
  let signal = Array.init n1 (fun i -> { Complex.re = cos (float_of_int i); im = sin (float_of_int i) }) in
  let nf = float_of_int n and n1f = float_of_int n1 and ndf = float_of_int (nd + 1) in
  let fft_flops, fft_bytes = fft_cost n1 in
  let shape = Printf.sprintf "n1=%d n=%d" n1 n in
  [
    {
      k_name = "linalg.matvec_us";
      shape;
      us = us_per_call (fun () -> Structured.apply_into op v out);
      flops = (4. *. n1f *. nf *. nf) +. (2. *. n1f *. n1f *. nf);
      bytes = 8. *. ((2. *. n1f *. nf *. nf) +. (n1f *. n1f) +. (3. *. n1f *. nf));
    };
    {
      k_name = "linalg.precond_build_us";
      shape;
      us = us_per_call (fun () -> ignore (Structured.make_precond ~dft op));
      flops = (4. *. n1f *. nf *. nf) +. (n1f *. 8. /. 3. *. nf *. nf *. nf);
      bytes = (16. *. n1f *. nf *. nf) +. (16. *. n1f *. nf *. nf);
    };
    {
      k_name = "linalg.precond_apply_us";
      shape;
      us = us_per_call (fun () -> ignore (Structured.precond_apply pc v));
      flops = (2. *. nf *. fft_flops) +. (8. *. n1f *. nf *. nf);
      bytes = (nf *. 2. *. fft_bytes) +. (16. *. n1f *. nf *. nf);
    };
    {
      k_name = "linalg.lu_factor_us";
      shape = Printf.sprintf "dense %dx%d" (nd + 1) (nd + 1);
      us = us_per_call (fun () -> ignore (Lu.factor dense));
      flops = 2. /. 3. *. ndf *. ndf *. ndf;
      bytes = 8. *. 2. *. ndf *. ndf;
    };
    {
      k_name = "fourier.fft_us";
      shape = Printf.sprintf "n=%d" n1;
      us = us_per_call (fun () -> ignore (Fourier.Fft.fft signal));
      flops = fft_flops;
      bytes = fft_bytes;
    };
  ]
