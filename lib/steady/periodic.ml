open Linalg

type solution = { period : float; grid : Vec.t array }

(* Forced system with no frequency unknown: 1/period (D Q)_j + f(t_j, X_j). *)
let collocation dae ~period ~n1 =
  let grid = Collocation.make ~n1 ~n:dae.Dae.dim () in
  let time j = period *. float_of_int j /. float_of_int n1 in
  let slice = Collocation.slice ~time (Collocation.Fixed (1. /. period)) in
  (grid, Collocation.system dae grid [| slice |])

let solve dae ~period ~n1 ~guess =
  if n1 mod 2 = 0 then invalid_arg "Periodic.solve: n1 must be odd";
  if Array.length guess <> n1 then invalid_arg "Periodic.solve: guess length <> n1";
  let grid, sys = collocation dae ~period ~n1 in
  let options = { Nonlin.Newton.default_options with max_iterations = 60; residual_tol = 1e-9 } in
  let report =
    Nonlin.Newton.solve ~options ~jacobian:(Collocation.jacobian sys)
      ~residual:(Collocation.residual sys) (Collocation.pack grid guess)
  in
  if not report.Nonlin.Newton.converged then
    failwith
      (Printf.sprintf "Periodic.solve: Newton failed (residual %.3e)"
         report.Nonlin.Newton.residual_norm);
  { period; grid = Collocation.unpack grid report.Nonlin.Newton.x }

let solve_from_transient dae ~period ~n1 ~warmup_periods x0 =
  let t_warm = period *. float_of_int warmup_periods in
  let h = period /. 200. in
  let traj =
    Transient.integrate dae ~method_:Transient.Trapezoidal ~t0:0. ~t1:(t_warm +. period) ~h x0
  in
  let guess =
    Array.init n1 (fun j ->
        let t = t_warm +. (period *. float_of_int j /. float_of_int n1) in
        Vec.init dae.Dae.dim (fun i -> Transient.interpolate traj i t))
  in
  solve dae ~period ~n1 ~guess

let component sol i = Array.map (fun s -> s.(i)) sol.grid

let fourier_coefficients sol ~component:i = Fourier.Series.coeffs (component sol i)

let eval sol ~component:i t =
  let c = fourier_coefficients sol ~component:i in
  Fourier.Series.eval c ~period:sol.period t

let residual_norm dae sol =
  let grid, sys = collocation dae ~period:sol.period ~n1:(Array.length sol.grid) in
  Vec.norm_inf (Collocation.residual sys (Collocation.pack grid sol.grid))
