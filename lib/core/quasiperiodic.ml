open Linalg
module Obs = Wampde_obs
module Collocation = Steady.Collocation

type solution = { p2 : float; t2 : Vec.t; omega : Vec.t; slices : Vec.t array array }

let slice_times ~p2 ~n2 = Vec.init n2 (fun m -> p2 *. float_of_int m /. float_of_int n2)

(* Unknown layout: slice m (the t1 grid at t2_m = m p2 / n2, then
   omega at t2_m) starts at y.(m * (n1 n + 1)), so each slice is laid
   out as an envelope step; one phase row per slice, and the slow
   derivative (1/p2) (D2 Q) couples the slices. *)
let collocation dae ~(options : Envelope.options) ~p2 ~n2 =
  let n1 = options.Envelope.n1 and n = dae.Dae.dim in
  let grid = Collocation.make ~differentiation:options.Envelope.differentiation ~n1 ~n () in
  let row = Phase.row options.Envelope.phase ~n1 ~n ~d:grid.d in
  let slice t2 = Collocation.slice ~time:(fun _ -> t2) (Collocation.Free row) in
  let slices = Array.map slice (slice_times ~p2 ~n2) in
  (grid, Collocation.system ~slow:(Fourier.Series.diff_matrix n2, p2) dae grid slices)

let pack grid sol =
  Array.concat
    (List.init (Array.length sol.slices) (fun m ->
         Collocation.pack grid ~omega:sol.omega.(m) sol.slices.(m)))

let unpack (grid : Collocation.t) ~p2 ~n2 y =
  let bs = (grid.n1 * grid.n) + 1 in
  {
    p2;
    t2 = slice_times ~p2 ~n2;
    omega = Vec.init n2 (fun m -> y.((m * bs) + bs - 1));
    slices = Array.init n2 (fun m -> Collocation.unpack grid ~off:(m * bs) y);
  }

let solve dae ?(max_iterations = 25) ?(tol = 1e-8) ~(options : Envelope.options) ~p2 ~n2 ~guess ()
    =
  let n = dae.Dae.dim in
  let n1 = options.Envelope.n1 in
  if n1 mod 2 = 0 || n2 mod 2 = 0 then
    invalid_arg "Quasiperiodic.solve: n1 and n2 must be odd";
  if Array.length guess.slices <> n2 || Array.length guess.slices.(0) <> n1 then
    invalid_arg "Quasiperiodic.solve: guess grid mismatch";
  Obs.Span.span
    ~attrs:[ ("n1", Obs.Span.Int n1); ("n2", Obs.Span.Int n2); ("dim", Obs.Span.Int n) ]
    "quasiperiodic.solve"
  @@ fun () ->
  Obs.Scope.with_scope "quasiperiodic" @@ fun () ->
  let grid, sys = collocation dae ~options ~p2 ~n2 in
  let use_krylov = Structured.use_krylov options.Envelope.solver ~dim:(Collocation.dim sys) in
  (* The Krylov path is matrix-free, preconditioned by the per-slice
     bordered FFT-block inverse (the slow d2/p2 coupling is weak
     against the omega-scaled fast term and is left to GMRES); it falls
     back to dense LU when the preconditioner degenerates or GMRES
     stalls. *)
  let direction y r =
    let lin = Collocation.linearise sys y in
    match if use_krylov then Collocation.krylov ~max_iter:300 ~tol:1e-10 lin r else None with
    | Some dy -> dy
    | None -> Lu.solve (Lu.factor (Collocation.dense lin)) r
  in
  let report =
    Nonlin.Newton.solve_with ~label:"quasiperiodic"
      ~options:
        {
          Nonlin.Newton.default_options with
          max_iterations;
          residual_tol = tol;
          (* no small-step exit: reach [tol] or fail *)
          step_tol = 0.;
          min_damping = 1e-3;
        }
      ~linear_solve:direction ~residual:(Collocation.residual sys) (pack grid guess)
  in
  if not report.Nonlin.Newton.converged then
    failwith
      (Printf.sprintf "Quasiperiodic.solve: no convergence (residual %.3e after %d iterations)"
         report.Nonlin.Newton.residual_norm report.Nonlin.Newton.iterations);
  let sol = unpack grid ~p2 ~n2 report.Nonlin.Newton.x in
  (if Obs.enabled () then begin
     (* worst-case t1 resolution over the n2 slow slices *)
     let stol = (Obs.Health.thresholds ()).Obs.Health.spectral_tol in
     let needed = ref 0 and tail = ref 0. and avail = ref (n1 / 2) in
     Array.iter
       (fun slice ->
         let rr = Fourier.Series.grid_resolution ~tol:stol slice in
         if rr.Fourier.Series.needed > !needed then needed := rr.Fourier.Series.needed;
         if rr.Fourier.Series.tail > !tail then tail := rr.Fourier.Series.tail;
         avail := rr.Fourier.Series.available)
       sol.slices;
     Obs.Health.note_spectrum ~tail:!tail ~needed:!needed ~available:!avail ()
   end);
  sol

let guess_from_envelope (result : Envelope.result) ~p2 ~n2 ~t_from =
  let n1 = Array.length result.Envelope.slices.(0) in
  let n = Array.length result.Envelope.slices.(0).(0) in
  let sample_at t =
    (* locate nearest envelope step *)
    let m = Array.length result.Envelope.t2 in
    let best = ref 0 in
    for i = 1 to m - 1 do
      if
        Float.abs (result.Envelope.t2.(i) -. t) < Float.abs (result.Envelope.t2.(!best) -. t)
      then best := i
    done;
    !best
  in
  let slices =
    Array.init n2 (fun m ->
        let t = t_from +. (p2 *. float_of_int m /. float_of_int n2) in
        let idx = sample_at t in
        Array.init n1 (fun j -> Array.copy result.Envelope.slices.(idx).(j)))
  in
  let omega =
    Vec.init n2 (fun m ->
        let t = t_from +. (p2 *. float_of_int m /. float_of_int n2) in
        result.Envelope.omega.(sample_at t))
  in
  ignore n;
  {
    p2;
    t2 = Vec.init n2 (fun m -> p2 *. float_of_int m /. float_of_int n2);
    omega;
    slices;
  }

let residual_norm dae ~(options : Envelope.options) sol =
  let grid, sys = collocation dae ~options ~p2:sol.p2 ~n2:(Array.length sol.slices) in
  let res = Collocation.residual sys (pack grid sol) in
  let nd = grid.n1 * grid.n in
  let worst = ref 0. in
  Array.iteri
    (fun idx v -> if idx mod (nd + 1) <> nd then worst := Float.max !worst (Float.abs v))
    res;
  !worst

let mean_frequency sol = Vec.mean sol.omega

let eval_waveform sol ~component ~t_max t =
  (* build a warping over [0, t_max] from the periodic omega *)
  let n_samples = Int.max 64 (int_of_float (Float.ceil (t_max /. sol.p2 *. 64.))) in
  let times = Vec.linspace 0. t_max n_samples in
  let omega_interp tt =
    let tau = Float.rem tt sol.p2 in
    let tau = if tau < 0. then tau +. sol.p2 else tau in
    (* trig interpolation of the periodic omega samples *)
    Fourier.Series.interp sol.omega ~period:sol.p2 tau
  in
  let w = Sigproc.Warp.of_samples ~times ~omega:(Vec.map omega_interp times) in
  let tau1 = Float.rem (Sigproc.Warp.phi w t) 1. in
  let t2 = Float.rem t sol.p2 in
  (* bilinear in t2 between slices, trig in t1 *)
  let n2 = Array.length sol.slices in
  let ft = t2 /. sol.p2 *. float_of_int n2 in
  let m0 = int_of_float ft mod n2 in
  let m1 = (m0 + 1) mod n2 in
  let frac = ft -. Float.of_int (int_of_float ft) in
  let value m =
    let samples = Array.map (fun s -> s.(component)) sol.slices.(m) in
    Fourier.Series.interp samples ~period:1. tau1
  in
  ((1. -. frac) *. value m0) +. (frac *. value m1)
