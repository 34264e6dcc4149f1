open Linalg
module Obs = Wampde_obs

let c_gmin_retries = Obs.Metrics.counter "gmres.precond.gmin_retries"

type t = { n1 : int; n : int; d : Mat.t }

let make ?(differentiation = `Spectral) ~n1 ~n () =
  let d =
    match differentiation with
    | `Spectral -> Fourier.Series.diff_matrix n1
    | `Fd4 -> Fourier.Series.diff_matrix_fd ~order:4 n1
  in
  { n1; n; d }

let unpack_into g ~off y states =
  for j = 0 to g.n1 - 1 do
    Array.blit y (off + (j * g.n)) states.(j) 0 g.n
  done

let unpack g ?(off = 0) y = Array.init g.n1 (fun j -> Array.sub y (off + (j * g.n)) g.n)

let pack g ?omega states =
  let nd = g.n1 * g.n in
  let y = Array.make (if Option.is_none omega then nd else nd + 1) 0. in
  Array.iteri (fun j x -> Array.blit x 0 y (j * g.n) g.n) states;
  Option.iter (fun w -> y.(nd) <- w) omega;
  y

let derivative_row g ~component =
  let row = Array.make (g.n1 * g.n) 0. in
  for k = 0 to g.n1 - 1 do
    row.((k * g.n) + component) <- g.d.(0).(k)
  done;
  row

(* dst.(off + j n + i) <- scale (D Q)_{j,i} *)
let diff_into g ~scale qs dst ~off =
  for j = 0 to g.n1 - 1 do
    let dj = g.d.(j) in
    for i = 0 to g.n - 1 do
      let s = ref 0. in
      for k = 0 to g.n1 - 1 do
        s := !s +. (dj.(k) *. qs.(k).(i))
      done;
      dst.(off + (j * g.n) + i) <- scale *. !s
    done
  done

(* g = alpha (D Q) + f + b written at [dst.(off)]; [qs] receives the
   charges q(X_j) so the caller can reuse them. *)
let spatial_into dae g ~alpha ~time ~forcing states qs dst ~off =
  for j = 0 to g.n1 - 1 do
    qs.(j) <- dae.Dae.q states.(j)
  done;
  diff_into g ~scale:alpha qs dst ~off;
  let add base v =
    for i = 0 to g.n - 1 do
      dst.(base + i) <- dst.(base + i) +. v.(i)
    done
  in
  for j = 0 to g.n1 - 1 do
    let base = off + (j * g.n) in
    add base (dae.Dae.f ~t:(time j) states.(j));
    match forcing with Some b -> add base (b j) | None -> ()
  done

let no_time _ = 0.

let spatial dae g ~alpha ?(time = no_time) ?forcing states =
  let dst = Array.make (g.n1 * g.n) 0. in
  spatial_into dae g ~alpha ~time ~forcing states (Array.make g.n1 [||]) dst ~off:0;
  dst

type omega = Fixed of float | Free of Vec.t

type step = Steady | Theta of { h : float; theta : float; q0 : Vec.t array; g0 : Vec.t }

type slice = {
  time : int -> float;
  forcing : (int -> Vec.t) option;
  step : step;
  omega : omega;
}

let slice ?(time = no_time) ?forcing ?(step = Steady) omega = { time; forcing; step; omega }

type system = {
  dae : Dae.t;
  grid : t;
  slices : slice array;
  slow : (Mat.t * float) option;
  bs : int;  (* unknowns per slice *)
  states : Vec.t array;  (* unpack scratch *)
  qs : Vec.t array array;  (* per-slice charges at the last residual *)
  g : Vec.t;  (* spatial residual scratch of a theta step *)
}

let is_free sl = match sl.omega with Free _ -> true | Fixed _ -> false

let system ?slow dae grid slices =
  let nd = grid.n1 * grid.n in
  let uniform = Array.for_all (fun sl -> is_free sl = is_free slices.(0)) in
  if Array.length slices = 0 || not (uniform slices) then
    invalid_arg "Collocation.system: need slices, all bordered or all unbordered";
  {
    dae;
    grid;
    slices;
    slow;
    bs = (if is_free slices.(0) then nd + 1 else nd);
    states = Array.init grid.n1 (fun _ -> Array.make grid.n 0.);
    qs = Array.map (fun _ -> Array.make grid.n1 [||]) slices;
    g = Array.make nd 0.;
  }

let dim sys = Array.length sys.slices * sys.bs

let alpha_of sl y ~off ~nd = match sl.omega with Fixed a -> a | Free _ -> y.(off + nd)

let residual_into sys y dst =
  let g = sys.grid in
  let n = g.n and nd = g.n1 * g.n in
  Array.iteri
    (fun m sl ->
      let off = m * sys.bs and qs = sys.qs.(m) in
      unpack_into g ~off y sys.states;
      let alpha = alpha_of sl y ~off ~nd in
      let spatial = spatial_into sys.dae g ~alpha ~time:sl.time ~forcing:sl.forcing sys.states qs in
      (match sl.step with
       | Steady -> spatial dst ~off
       | Theta { h; theta; q0; g0 } ->
         let gv = sys.g in
         spatial gv ~off:0;
         for j = 0 to g.n1 - 1 do
           let qj = qs.(j) and q0j = q0.(j) in
           for i = 0 to n - 1 do
             let idx = (j * n) + i in
             dst.(off + idx) <-
               qj.(i) -. q0j.(i)
               +. (h *. theta *. gv.(idx))
               +. (if theta < 1. then h *. (1. -. theta) *. g0.(idx) else 0.)
           done
         done);
      match sl.omega with
      | Fixed _ -> ()
      | Free row ->
        let s = ref 0. in
        for idx = 0 to nd - 1 do
          s := !s +. (row.(idx) *. y.(off + idx))
        done;
        dst.(off + nd) <- !s)
    sys.slices;
  match sys.slow with
  | None -> ()
  | Some (d2, p2) ->
    let n2 = Array.length sys.slices in
    for m = 0 to n2 - 1 do
      for j = 0 to g.n1 - 1 do
        for i = 0 to n - 1 do
          let s = ref 0. in
          for p = 0 to n2 - 1 do
            s := !s +. (d2.(m).(p) *. sys.qs.(p).(j).(i))
          done;
          let idx = (m * sys.bs) + (j * n) + i in
          dst.(idx) <- dst.(idx) +. (!s /. p2)
        done
      done
    done

let residual sys y =
  let dst = Array.make (dim sys) 0. in
  residual_into sys y dst;
  dst

(* One slice of a linearisation: its structured operator, the C blocks
   the slow coupling reuses, and the border column ([||] when the
   frequency is fixed). *)
type part = { op : Structured.op; cs : Mat.t array; col : Vec.t }

type lin = { sys : system; parts : part array }

(* Per slice: C = dq, G = df; a steady slice is alpha (D (x) C) + G
   bordered by (D Q); a theta step is h theta alpha (D (x) C) +
   (C + h theta G) bordered by h theta (D Q). *)
let linearise sys y =
  let g = sys.grid and dae = sys.dae in
  let n = g.n and nd = g.n1 * g.n in
  let part m sl =
    let off = m * sys.bs in
    let states = unpack g ~off y in
    let cs = Array.map dae.Dae.dq states in
    let gs = Array.init g.n1 (fun j -> dae.Dae.df ~t:(sl.time j) states.(j)) in
    let scale, b_blocks =
      match sl.step with
      | Steady -> (1., gs)
      | Theta { h; theta; _ } ->
        let gamma = h *. theta in
        ( gamma,
          Array.init g.n1 (fun j ->
              Mat.init n n (fun i l -> cs.(j).(i).(l) +. (gamma *. gs.(j).(i).(l)))) )
    in
    let col = if is_free sl then Array.make nd 0. else [||] in
    if is_free sl then diff_into g ~scale (Array.map dae.Dae.q states) col ~off:0;
    let alpha = scale *. alpha_of sl y ~off ~nd in
    { op = Structured.make_op ~alpha ~d:g.d ~c_blocks:cs ~b_blocks; cs; col }
  in
  { sys; parts = Array.mapi part sys.slices }

(* The slow coupling (1/p2) (d2 (x) blockdiag C): [f m p dmp] for every
   nonzero d2_mp / p2. *)
let iter_slow lin f =
  match lin.sys.slow with
  | None -> ()
  | Some (d2, p2) ->
    let n2 = Array.length lin.parts in
    for m = 0 to n2 - 1 do
      for p = 0 to n2 - 1 do
        let dmp = d2.(m).(p) /. p2 in
        if dmp <> 0. then f m p dmp
      done
    done

let dense lin =
  let sys = lin.sys in
  let g = sys.grid and bs = sys.bs in
  let n = g.n and nd = g.n1 * g.n in
  if Array.length lin.parts = 1 && bs = nd then Structured.to_dense lin.parts.(0).op
  else begin
    let jac = Mat.zeros (dim sys) (dim sys) in
    Array.iteri
      (fun m pt ->
        let off = m * bs in
        let block = Structured.to_dense pt.op in
        Array.iteri (fun r row -> Array.blit row 0 jac.(off + r) off nd) block;
        match sys.slices.(m).omega with
        | Fixed _ -> ()
        | Free prow ->
          Array.iteri (fun r c -> jac.(off + r).(off + nd) <- c) pt.col;
          Array.blit prow 0 jac.(off + nd) off nd)
      lin.parts;
    iter_slow lin (fun m p dmp ->
        for j = 0 to g.n1 - 1 do
          let c = lin.parts.(p).cs.(j) in
          for i = 0 to n - 1 do
            let row = jac.((m * bs) + (j * n) + i) in
            for l = 0 to n - 1 do
              let col = (p * bs) + (j * n) + l in
              row.(col) <- row.(col) +. (dmp *. c.(i).(l))
            done
          done
        done);
    jac
  end

let jacobian sys y = dense (linearise sys y)

let apply_part lin m v out =
  let pt = lin.parts.(m) in
  match lin.sys.slices.(m).omega with
  | Fixed _ -> Structured.apply_into pt.op v out
  | Free border_row -> Structured.apply_bordered_into pt.op ~border_col:pt.col ~border_row v out

let apply_into lin v out =
  let sys = lin.sys in
  let n2 = Array.length lin.parts in
  if n2 = 1 && Option.is_none sys.slow then apply_part lin 0 v out
  else begin
    let bs = sys.bs and nd = sys.grid.n1 * sys.grid.n in
    let vseg = Array.make bs 0. and oseg = Array.make bs 0. in
    for m = 0 to n2 - 1 do
      Array.blit v (m * bs) vseg 0 bs;
      apply_part lin m vseg oseg;
      Array.blit oseg 0 out (m * bs) bs
    done;
    (* cu_p = blockdiag(C_p) v_p, then out_m += (1 / p2) sum_p d2_mp cu_p *)
    let cu =
      Array.init n2 (fun p ->
          Array.blit v (p * bs) vseg 0 nd;
          let dst = Array.make nd 0. in
          Structured.block_mul_into lin.parts.(p).cs ~src:vseg ~dst;
          dst)
    in
    iter_slow lin (fun m p dmp ->
        for idx = 0 to nd - 1 do
          out.((m * bs) + idx) <- out.((m * bs) + idx) +. (dmp *. cu.(p).(idx))
        done)
  end

let make_bordered pc ~border_col ~border_row =
  try Structured.make_bordered pc ~border_col ~border_row
  with Structured.Bordered_singular _ ->
    (* degenerate phase border: regularise the Schur scalar rather than
       dropping straight to the dense path *)
    Obs.Metrics.incr c_gmin_retries;
    Structured.make_bordered ~gmin:1e-9 pc ~border_col ~border_row

(* Block-diagonal over the slices: each slice's averaged-block inverse,
   bordered by the exact Schur complement when its frequency is free;
   the slow coupling is left to GMRES.  Raises [Cx.Clu.Singular] or
   [Structured.Bordered_singular]. *)
let precond ?cache_key lin =
  let dft = Fourier.Fft.structured_dft in
  let inverse m pt =
    let pc =
      match cache_key with
      | None -> Structured.make_precond ~dft pt.op
      | Some key -> Structured.make_precond_cached ~dft ~key pt.op
    in
    match lin.sys.slices.(m).omega with
    | Fixed _ -> Structured.precond_apply pc
    | Free border_row ->
      Structured.bordered_apply (make_bordered pc ~border_col:pt.col ~border_row)
  in
  match Array.mapi inverse lin.parts with
  | [| inv |] -> inv
  | inverses ->
    let bs = lin.sys.bs in
    let seg = Array.make bs 0. in
    fun v ->
      let out = Array.make (Array.length v) 0. in
      Array.iteri
        (fun m inv ->
          Array.blit v (m * bs) seg 0 bs;
          Array.blit (inv seg) 0 out (m * bs) bs)
        inverses;
      out

let krylov ?cache_key ?(restart = 60) ?max_iter ~tol lin r =
  let solved =
    match precond ?cache_key lin with
    | exception (Cx.Clu.Singular _ | Structured.Bordered_singular _) -> None
    | m_inv ->
      let buf = Array.make (dim lin.sys) 0. in
      let matvec v =
        apply_into lin v buf;
        Array.copy buf
      in
      let res = Gmres.solve ~matvec ~m_inv ~restart ?max_iter ~tol r in
      if res.Gmres.converged then Some res.Gmres.x else None
  in
  if Option.is_none solved then Structured.fallback_to_dense ();
  solved

let interp_stack ~t2s ~slices ~period ~component ~t1 t2 =
  let m = Array.length t2s in
  let idx =
    if t2 <= t2s.(0) then 0
    else if t2 >= t2s.(m - 1) then m - 2
    else begin
      let lo = ref 0 and hi = ref (m - 1) in
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        if t2s.(mid) <= t2 then lo := mid else hi := mid
      done;
      !lo
    end
  in
  let at i = Fourier.Series.interp (Array.map (fun s -> s.(component)) slices.(i)) ~period t1 in
  let wa = at idx and wb = at (idx + 1) in
  let ta = t2s.(idx) and tb = t2s.(idx + 1) in
  let frac = if tb = ta then 0. else Float.max 0. (Float.min 1. ((t2 -. ta) /. (tb -. ta))) in
  wa +. (frac *. (wb -. wa))
