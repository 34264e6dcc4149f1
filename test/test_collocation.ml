(* Tests for Steady.Collocation, the collocation core behind the
   oscillator, periodic, envelope, quasiperiodic and MPDE solvers: for
   every configuration the dense Jacobian must be the derivative of the
   residual and agree with the matrix-free operator column by column. *)
open Linalg
module C = Steady.Collocation

let vco = lazy (Circuit.Vco.build (Circuit.Vco.vco_a ()))
let n1 = 7

(* A t1 grid of VCO states: the equilibrium start swept around a
   seed-dependent ellipse, so every point sits in a different spot of
   the nonlinear characteristics. *)
let vco_states seed ~phase =
  let x0 = Circuit.Vco.initial_state (Circuit.Vco.vco_a ()) in
  Array.init n1 (fun j ->
      let a = (2. *. Float.pi *. float_of_int j /. float_of_int n1) +. phase in
      Array.mapi
        (fun i x ->
          let amp = 0.2 +. (0.1 *. float_of_int ((seed + i) mod 5)) in
          x +. (amp *. sin (a +. float_of_int i)))
        x0)

let phase_row grid = C.derivative_row grid ~component:0

(* The five configurations, each as a system plus a point to linearise
   at. *)
let configurations seed =
  let dae = Lazy.force vco in
  let grid = C.make ~n1 ~n:dae.Dae.dim () in
  let states = vco_states seed ~phase:0. in
  let omega = 0.7 +. (0.01 *. float_of_int (seed mod 7)) in
  let t2 = 3. +. float_of_int (seed mod 11) in
  let theta_step =
    let prev = vco_states (seed + 1) ~phase:0.1 in
    C.Theta
      {
        h = 0.3;
        theta = 0.5;
        q0 = Array.map dae.Dae.q prev;
        g0 = C.spatial dae grid ~alpha:omega ~time:(fun _ -> t2) prev;
      }
  in
  let single ?slow slice = C.system ?slow dae grid [| slice |] in
  let n2 = 3 and p2 = 40. in
  [
    ("oscillator", single (C.slice (C.Free (phase_row grid))), C.pack grid ~omega states);
    ( "periodic",
      single (C.slice ~time:(fun j -> 1.3 *. float_of_int j) (C.Fixed (1. /. 1.3))),
      C.pack grid states );
    ( "envelope",
      single (C.slice ~time:(fun _ -> t2) ~step:theta_step (C.Free (phase_row grid))),
      C.pack grid ~omega states );
    ( "quasiperiodic",
      C.system
        ~slow:(Fourier.Series.diff_matrix n2, p2)
        dae grid
        (Array.init n2 (fun m ->
             C.slice
               ~time:(fun _ -> p2 *. float_of_int m /. float_of_int n2)
               (C.Free (phase_row grid)))),
      Array.concat
        (List.init n2 (fun m ->
             C.pack grid ~omega:(omega +. (0.05 *. float_of_int m))
               (vco_states (seed + m) ~phase:(0.3 *. float_of_int m)))) );
    ( "mpde",
      single
        (C.slice ~time:(fun _ -> t2)
           ~forcing:(fun j -> Array.make dae.Dae.dim (0.1 *. cos (float_of_int j)))
           ~step:theta_step (C.Fixed 2.)),
      C.pack grid states );
  ]

let max_abs m =
  Array.fold_left (fun a row -> Array.fold_left (fun a x -> Float.max a (Float.abs x)) a row) 0. m

let jacobian_tests =
  let open QCheck in
  [
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"dense Jacobian = FD Jacobian = matvec columns, all five configurations"
         ~count:12 (make Gen.(int_range 0 1000))
         (fun seed ->
           List.for_all
             (fun (name, sys, y) ->
               let lin = C.linearise sys y in
               let dense = C.dense lin in
               let fd = Nonlin.Fdjac.jacobian_central (C.residual sys) y in
               let dim = C.dim sys in
               let scale = 1. +. max_abs dense in
               let fd_err = max_abs (Array.map2 (Array.map2 ( -. )) dense fd) in
               let mv_err = ref 0. in
               let e = Array.make dim 0. and out = Array.make dim 0. in
               for k = 0 to dim - 1 do
                 e.(k) <- 1.;
                 C.apply_into lin e out;
                 e.(k) <- 0.;
                 for r = 0 to dim - 1 do
                   mv_err := Float.max !mv_err (Float.abs (out.(r) -. dense.(r).(k)))
                 done
               done;
               if fd_err > 1e-6 *. scale || !mv_err > 1e-12 *. scale then
                 Test.fail_reportf "%s: FD error %.2e, matvec error %.2e (scale %.2e)" name fd_err
                   !mv_err scale
               else Array.length dense = dim)
             (configurations seed)));
  ]

let precond_tests =
  [
    Alcotest.test_case "zero border row takes one counted gmin retry" `Quick (fun () ->
        let dae = Lazy.force vco in
        let grid = C.make ~n1 ~n:dae.Dae.dim () in
        let sys =
          C.system dae grid [| C.slice (C.Free (Array.make (n1 * dae.Dae.dim) 0.)) |]
        in
        let lin = C.linearise sys (C.pack grid ~omega:0.75 (vco_states 0 ~phase:0.)) in
        let retries, fallbacks =
          Wampde_obs.Metrics.with_isolated (fun () ->
              Wampde_obs.set_enabled true;
              (* the zero row makes the system itself singular, so GMRES
                 cannot converge and the caller is sent to dense LU *)
              let dx = C.krylov ~max_iter:20 ~tol:1e-10 lin (Array.make (C.dim sys) 1.) in
              Alcotest.(check bool) "no direction" true (Option.is_none dx);
              let count name = Wampde_obs.Metrics.(count (counter name)) in
              (count "gmres.precond.gmin_retries", count "gmres.precond.fallbacks"))
        in
        Alcotest.(check int) "one retry" 1 retries;
        Alcotest.(check int) "one fallback" 1 fallbacks);
    Alcotest.test_case "krylov direction solves the envelope step system" `Quick (fun () ->
        let _, sys, y = List.nth (configurations 5) 2 in
        let lin = C.linearise sys y in
        let r = C.residual sys y in
        match C.krylov ~tol:1e-12 lin r with
        | None -> Alcotest.fail "krylov did not converge"
        | Some dx ->
          let direct = Lu.solve (Lu.factor (C.dense lin)) r in
          Alcotest.(check bool) "matches LU" true (Vec.approx_equal ~tol:1e-8 dx direct));
  ]

let suites = [ ("collocation", jacobian_tests @ precond_tests) ]
