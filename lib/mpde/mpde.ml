open Linalg
module Obs = Wampde_obs
module Collocation = Steady.Collocation

type system = { dae : Dae.t; p1 : float; b_fast : t1:float -> t2:float -> Vec.t }

type result = { t2 : Vec.t; slices : Vec.t array array; p1 : float }

exception Solve_failure of { stage : string; report : Nonlin.Newton.report }

let () =
  Printexc.register_printer (function
    | Solve_failure { stage; report } ->
      Some
        (Printf.sprintf "Mpde.Solve_failure: %s did not converge (residual %.3e after %d iterations)"
           stage report.Nonlin.Newton.residual_norm report.Nonlin.Newton.iterations)
    | _ -> None)

let c_steps = Obs.Metrics.counter "mpde.steps"

let newton_options =
  { Nonlin.Newton.default_options with max_iterations = 50; residual_tol = 1e-9 }

(* One t1 slice of the MPDE at slow time t2:
   (1/p1) (D Q)_j + f(t2, X_j) + b_fast(t1_j, t2). *)
let forcing sys (grid : Collocation.t) ~t2 j =
  sys.b_fast ~t1:(sys.p1 *. float_of_int j /. float_of_int grid.n1) ~t2

let slice ?step sys grid ~t2 =
  Collocation.slice ~time:(fun _ -> t2) ~forcing:(forcing sys grid ~t2) ?step
    (Collocation.Fixed (1. /. sys.p1))

let spatial sys grid ~t2 states =
  Collocation.spatial sys.dae grid ~alpha:(1. /. sys.p1) ~time:(fun _ -> t2)
    ~forcing:(forcing sys grid ~t2) states

(* Matrix-free Newton direction through the structured collocation
   operator; falls back to the dense Jacobian when GMRES stalls or the
   preconditioner degenerates. *)
let structured_linear_solve csys x r =
  let lin = Collocation.linearise csys x in
  match Collocation.krylov ~restart:80 ~tol:1e-10 lin r with
  | Some dx -> dx
  | None -> Lu.solve (Lu.factor (Collocation.dense lin)) r

let periodic_initial ?(solver = Structured.auto) sys ~n1 ~guess =
  if n1 mod 2 = 0 then invalid_arg "Mpde.periodic_initial: n1 must be odd";
  Obs.Span.span
    ~attrs:[ ("n1", Obs.Span.Int n1); ("dim", Obs.Span.Int sys.dae.Dae.dim) ]
    "mpde.periodic_initial"
  @@ fun () ->
  Obs.Scope.with_scope "mpde" @@ fun () ->
  let grid = Collocation.make ~n1 ~n:sys.dae.Dae.dim () in
  let csys = Collocation.system sys.dae grid [| slice sys grid ~t2:0. |] in
  let linear_solve =
    if Structured.use_krylov solver ~dim:(Collocation.dim csys) then
      Some (structured_linear_solve csys)
    else None
  in
  let outcome =
    Nonlin.Polyalg.solve ~options:newton_options ~label:"mpde.initial" ?linear_solve
      ~jacobian:(Collocation.jacobian csys) ~residual:(Collocation.residual csys)
      (Collocation.pack grid guess)
  in
  let report = outcome.Nonlin.Polyalg.report in
  if not report.Nonlin.Newton.converged then
    raise (Solve_failure { stage = "Mpde.periodic_initial"; report });
  Collocation.unpack grid report.Nonlin.Newton.x

let simulate ?(solver = Structured.auto) sys ~n1 ~t2_end ~h2 ~init =
  if n1 mod 2 = 0 then invalid_arg "Mpde.simulate: n1 must be odd";
  Obs.Span.span
    ~attrs:
      [
        ("n1", Obs.Span.Int n1);
        ("dim", Obs.Span.Int sys.dae.Dae.dim);
        ("t2", Obs.Span.Float t2_end);
      ]
    "mpde.simulate"
  @@ fun () ->
  Obs.Scope.with_scope "mpde" @@ fun () ->
  let dae = sys.dae in
  let n = dae.Dae.dim in
  if Array.length init <> n1 then invalid_arg "Mpde.simulate: init size <> n1";
  let grid = Collocation.make ~n1 ~n () in
  let theta = 0.5 in
  let t2s = ref [ 0. ] and slices = ref [ Array.map Array.copy init ] in
  let t2 = ref 0. and states = ref init in
  let g = ref (spatial sys grid ~t2:0. !states) in
  (* the march targets the fixed step [h2]; the controller only kicks
     in when Newton fails, halving the step and growing it back toward
     [h2] across subsequent accepted steps *)
  let ctrl =
    Step_control.create
      (Step_control.default_options ~h_min:(1e-9 *. h2) ~h_max:h2 ())
      ~h_init:h2
  in
  let escalated = ref false in
  while !t2 < t2_end -. (1e-9 *. t2_end) do
    let h = Step_control.propose ctrl ~remaining:(t2_end -. !t2) in
    let t2_new = !t2 +. h in
    let step = Collocation.Theta { h; theta; q0 = Array.map dae.Dae.q !states; g0 = !g } in
    let csys = Collocation.system dae grid [| slice ~step sys grid ~t2:t2_new |] in
    let residual = Collocation.residual csys in
    let y0 = Collocation.pack grid !states in
    let report =
      if (not !escalated) && Structured.use_krylov solver ~dim:(n1 * n) then
        Nonlin.Newton.solve_with ~options:newton_options ~label:"mpde.step"
          ~linear_solve:(structured_linear_solve csys) ~residual y0
      else
        (* dense path (small systems, or after Krylov escalation): let
           the cascade rescue hard steps before the controller shrinks
           the step any further *)
        (Nonlin.Polyalg.solve ~options:newton_options ~label:"mpde.step"
           ~cascade:[ Nonlin.Polyalg.Damped; Nonlin.Polyalg.Trust_region ]
           ~jacobian:(Collocation.jacobian csys) ~residual y0)
          .Nonlin.Polyalg.report
    in
    if not report.Nonlin.Newton.converged then begin
      ignore (Step_control.failure_retry ctrl ~t:!t2 ~h_used:h ~reason:"newton");
      if Step_control.should_escalate ctrl then escalated := true
    end
    else begin
      states := Collocation.unpack grid report.Nonlin.Newton.x;
      g := spatial sys grid ~t2:t2_new !states;
      Obs.Metrics.incr c_steps;
      Step_control.record_accept ctrl ~t:!t2 ~h_used:h;
      (if Obs.enabled () then begin
         let tol = (Obs.Health.thresholds ()).Obs.Health.spectral_tol in
         let r = Fourier.Series.grid_resolution ~tol !states in
         Obs.Health.note_spectrum ~t:t2_new ~tail:r.Fourier.Series.tail
           ~needed:r.Fourier.Series.needed ~available:r.Fourier.Series.available ()
       end);
      t2 := t2_new;
      t2s := t2_new :: !t2s;
      slices := Array.map Array.copy !states :: !slices
    end
  done;
  {
    t2 = Array.of_list (List.rev !t2s);
    slices = Array.of_list (List.rev !slices);
    p1 = sys.p1;
  }

let quasiperiodic ?cascade sys ~n1 ~n2 ~p2 ~guess =
  if n1 mod 2 = 0 || n2 mod 2 = 0 then invalid_arg "Mpde.quasiperiodic: n1, n2 must be odd";
  Obs.Span.span
    ~attrs:
      [
        ("n1", Obs.Span.Int n1);
        ("n2", Obs.Span.Int n2);
        ("dim", Obs.Span.Int sys.dae.Dae.dim);
      ]
    "mpde.quasiperiodic"
  @@ fun () ->
  Obs.Scope.with_scope "mpde" @@ fun () ->
  let dae = sys.dae in
  let n = dae.Dae.dim in
  if Array.length guess <> n2 then invalid_arg "Mpde.quasiperiodic: guess size <> n2";
  let grid = Collocation.make ~n1 ~n () in
  let csys =
    Collocation.system
      ~slow:(Fourier.Series.diff_matrix n2, p2)
      dae grid
      (Array.init n2 (fun m -> slice sys grid ~t2:(p2 *. float_of_int m /. float_of_int n2)))
  in
  let outcome =
    Nonlin.Polyalg.solve
      ~options:{ newton_options with max_iterations = 80 }
      ?cascade ~label:"mpde.quasiperiodic" ~residual:(Collocation.residual csys)
      (Array.concat (Array.to_list (Array.map (Collocation.pack grid) guess)))
  in
  let report = outcome.Nonlin.Polyalg.report in
  if not report.Nonlin.Newton.converged then
    raise (Solve_failure { stage = "Mpde.quasiperiodic"; report });
  let st =
    Array.init n2 (fun m -> Collocation.unpack grid ~off:(m * n1 * n) report.Nonlin.Newton.x)
  in
  {
    t2 = Vec.init n2 (fun m -> p2 *. float_of_int m /. float_of_int n2);
    slices = st;
    p1 = sys.p1;
  }

let eval_bivariate res ~component ~t1 ~t2 =
  Collocation.interp_stack ~t2s:res.t2 ~slices:res.slices ~period:res.p1 ~component ~t1 t2

let eval_waveform res ~component t =
  eval_bivariate res ~component ~t1:(Float.rem t res.p1) ~t2:t
