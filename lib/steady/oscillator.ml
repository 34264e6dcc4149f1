open Linalg
module Obs = Wampde_obs

type orbit = { omega : float; grid : Vec.t array }

exception Nonphysical of string

let () =
  Printexc.register_printer (function
    | Nonphysical msg -> Some ("Oscillator.Nonphysical: " ^ msg)
    | _ -> None)

let period orbit = 1. /. orbit.omega

(* Autonomous system: f evaluated at t = 0 (no explicit slow forcing);
   the frequency is the trailing unknown, pinned by d x_comp / d t1 = 0
   at grid point 0. *)
let collocation dae ~n1 ~phase_component =
  let grid = Collocation.make ~n1 ~n:dae.Dae.dim () in
  let row = Collocation.derivative_row grid ~component:phase_component in
  (grid, Collocation.system dae grid [| Collocation.slice (Collocation.Free row) |])

let solve dae ~n1 ~guess ~omega_guess ~phase_component =
  if n1 mod 2 = 0 then invalid_arg "Oscillator.solve: n1 must be odd";
  Obs.Span.span
    ~attrs:[ ("n1", Obs.Span.Int n1); ("dim", Obs.Span.Int dae.Dae.dim) ]
    "oscillator.solve"
  @@ fun () ->
  Obs.Scope.with_scope "oscillator" @@ fun () ->
  let grid, sys = collocation dae ~n1 ~phase_component in
  let residual = Collocation.residual sys and jacobian = Collocation.jacobian sys in
  let options = { Nonlin.Newton.default_options with max_iterations = 80; residual_tol = 1e-9 } in
  let outcome =
    Nonlin.Polyalg.solve ~options ~label:"oscillator" ~jacobian ~residual
      (Collocation.pack grid ~omega:omega_guess guess)
  in
  let report = outcome.Nonlin.Polyalg.report in
  if not report.Nonlin.Newton.converged then
    raise
      (Nonlin.Polyalg.Solve_failed
         { label = "oscillator"; attempts = outcome.Nonlin.Polyalg.attempts });
  let x = report.Nonlin.Newton.x in
  let grid = Collocation.unpack grid x and omega = x.(n1 * dae.Dae.dim) in
  if omega <= 0. then raise (Nonphysical "Oscillator.solve: converged to non-positive frequency");
  { omega; grid }

let find dae ~n1 ?(phase_component = 0) ?(warmup_cycles = 30) ?(transient_steps_per_cycle = 100)
    ~period_hint x0 =
  Obs.Span.span
    ~attrs:[ ("n1", Obs.Span.Int n1); ("dim", Obs.Span.Int dae.Dae.dim) ]
    "oscillator.find"
  @@ fun () ->
  Obs.Scope.with_scope "oscillator" @@ fun () ->
  let h = period_hint /. float_of_int transient_steps_per_cycle in
  let t_end = period_hint *. float_of_int (warmup_cycles + 4) in
  let traj = Transient.integrate dae ~method_:Transient.Trapezoidal ~t0:0. ~t1:t_end ~h x0 in
  let comp = Transient.component traj phase_component in
  let mean = Vec.mean comp in
  let centered = Vec.map (fun x -> x -. mean) comp in
  let crossings = Sigproc.Zero_crossing.upward ~times:traj.Transient.times centered in
  let m = Array.length crossings in
  if m < 4 then raise (Nonphysical "Oscillator.find: too few oscillation cycles in warm-up transient");
  (* average the last few settled periods *)
  let avg_over = Int.min 5 (m - 1) in
  let period =
    (crossings.(m - 1) -. crossings.(m - 1 - avg_over)) /. float_of_int avg_over
  in
  (* sample one period ending at the last crossing *)
  let t_start = crossings.(m - 1) -. period in
  let raw =
    Array.init n1 (fun j ->
        let t = t_start +. (period *. float_of_int j /. float_of_int n1) in
        Vec.init dae.Dae.dim (fun i -> Transient.interpolate traj i t))
  in
  (* rotate so the phase component peaks at grid index 0 *)
  let peak = ref 0 in
  for j = 1 to n1 - 1 do
    if raw.(j).(phase_component) > raw.(!peak).(phase_component) then peak := j
  done;
  let guess = Array.init n1 (fun j -> raw.((j + !peak) mod n1)) in
  solve dae ~n1 ~guess ~omega_guess:(1. /. period) ~phase_component

let component orbit i = Array.map (fun s -> s.(i)) orbit.grid

let eval orbit ~component:i t =
  let samples = component orbit i in
  Fourier.Series.interp samples ~period:1. (orbit.omega *. t)

let amplitude orbit ~component:i =
  let samples = component orbit i in
  let hi = Array.fold_left Float.max neg_infinity samples in
  let lo = Array.fold_left Float.min infinity samples in
  (hi -. lo) /. 2.

let residual_norm dae orbit =
  let grid, sys = collocation dae ~n1:(Array.length orbit.grid) ~phase_component:0 in
  let res = Collocation.residual sys (Collocation.pack grid ~omega:orbit.omega orbit.grid) in
  (* exclude the phase row *)
  Vec.norm_inf (Array.sub res 0 (Array.length res - 1))
