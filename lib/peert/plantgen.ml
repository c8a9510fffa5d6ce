open C_ast

let nothing = Blockgen.{ state_fields = []; init = []; step = []; update = []; needs_time = false }

let in0 g = List.nth g.Blockgen.ins 0
let out_ g i = List.nth g.Blockgen.outs i
let out0 g = out_ g 0

(* Load torque expression of the serialised {!Load_profile} (see
   Plant_blocks.load_params); [w] is the current speed expression. *)
let load_torque_expr ps w =
  match Param.string_opt ps "load" with
  | None | Some "none" -> flt 0.0
  | Some "constant" -> flt (Param.float ps "load_tau")
  | Some "viscous" -> Bin ("*", flt (Param.float ps "load_k"), w)
  | Some "step" ->
      Ternary
        ( Bin (">=", Var "model_time", flt (Param.float ps "load_at")),
          flt (Param.float ps "load_tau"), flt 0.0 )
  | Some "pulse" ->
      Ternary
        ( Bin
            ( "&&",
              Bin (">=", Var "model_time", flt (Param.float ps "load_start")),
              Bin ("<", Var "model_time", flt (Param.float ps "load_stop")) ),
          flt (Param.float ps "load_tau"), flt 0.0 )
  | Some _ -> flt 0.0 (* composite profiles have no C realisation *)

(* Classic RK4 over one [dt] step with the input held, unrolled over
   the [n] states [x i]: stage s evaluates [deriv] at
   x + (coef_s dt) k_(s-1), then x += dt/6 (k1 + 2 k2 + 2 k3 + k4).
   A stage state is declared only when [deriv] reads it (the simulator
   compiles with -Werror). *)
let rk4 ~name ~dt ~n x deriv =
  let coef = [| 0.0; 0.5; 0.5; 1.0 |] in
  let stmts = ref [] in
  let emit s = stmts := s :: !stmts in
  let k = Array.make_matrix 4 n (flt 0.0) in
  for s = 0 to 3 do
    let declared = Hashtbl.create n in
    let xs i =
      if s = 0 then x i
      else
        match Hashtbl.find_opt declared i with
        | Some v -> v
        | None ->
            let v = Printf.sprintf "%s_xs%d_%d" name s i in
            emit
              (Decl
                 ( Double_t, v,
                   Some (Bin ("+", x i, Bin ("*", flt (coef.(s) *. dt), k.(s - 1).(i))))
                 ));
            Hashtbl.replace declared i (Var v);
            Var v
    in
    Array.iteri
      (fun i e ->
        let v = Printf.sprintf "%s_k%d_%d" name s i in
        emit (Decl (Double_t, v, Some e));
        k.(s).(i) <- Var v)
      (deriv xs)
  done;
  List.rev !stmts
  @ List.init n (fun i ->
        Assign
          ( x i,
            Bin
              ( "+",
                x i,
                Bin
                  ( "*",
                    flt (dt /. 6.0),
                    Bin
                      ( "+",
                        Bin
                          ( "+",
                            Bin ("+", k.(0).(i), Bin ("*", flt 2.0, k.(1).(i))),
                            Bin ("*", flt 2.0, k.(2).(i)) ),
                        k.(3).(i) ) ) ) ))

let emit ~dt g spec =
  let ps = spec.Block.params in
  let pf = Param.float ps in
  match spec.Block.kind with
  | "Integrator" ->
      (* dx/dt = k*u with u held: exact update x += k*u*dt *)
      Blockgen.
        {
          nothing with
          state_fields = [ (Double_t, "x") ];
          init = [ Assign (g.Blockgen.state "x", flt (pf "init")) ];
          step = [ Assign (out0 g, g.Blockgen.state "x") ];
          update =
            [
              Assign
                ( g.Blockgen.state "x",
                  Bin ("+", g.Blockgen.state "x",
                       Bin ("*", flt (pf "k" *. dt), in0 g)) );
            ];
        }
  | "FirstOrder" ->
      (* exact ZOH discretisation of k/(tau s + 1) *)
      let k = pf "k" and tau = pf "tau" in
      let a = exp (-.dt /. tau) in
      Blockgen.
        {
          nothing with
          state_fields = [ (Double_t, "x") ];
          init = [ Assign (g.Blockgen.state "x", flt 0.0) ];
          step = [ Assign (out0 g, g.Blockgen.state "x") ];
          update =
            [
              Assign
                ( g.Blockgen.state "x",
                  Bin ("+", Bin ("*", flt a, g.Blockgen.state "x"),
                       Bin ("*", flt (k *. (1.0 -. a)), in0 g)) );
            ];
        }
  | "TransferFcn" | "StateSpace" ->
      (* controllable-canonical / explicit state space under held-input
         RK4, unrolled over the states with literal coefficients *)
      let n, a_flat, b_vec, c_vec, d =
        match spec.Block.kind with
        | "StateSpace" ->
            ( Param.int ps "n",
              Param.floats ps "a",
              Param.floats ps "b",
              Param.floats ps "c",
              pf "d" )
        | _ ->
            (* rebuild the canonical realisation exactly as the block does *)
            let num = Param.floats ps "num" and den = Param.floats ps "den" in
            let n = Array.length den - 1 in
            let dennorm = Array.map (fun x -> x /. den.(0)) den in
            let numpad =
              let k = Array.length den - Array.length num in
              Array.init (Array.length den) (fun i ->
                  (if i < k then 0.0 else num.(i - k)) /. den.(0))
            in
            let d = numpad.(0) in
            let c = Array.init n (fun i -> numpad.(i + 1) -. (d *. dennorm.(i + 1))) in
            let a =
              Array.init n (fun i ->
                  Array.init n (fun j ->
                      if i = 0 then -.dennorm.(j + 1)
                      else if j = i - 1 then 1.0
                      else 0.0))
            in
            (n, Array.concat (Array.to_list a), Array.init n (fun i -> if i = 0 then 1.0 else 0.0), c, d)
      in
      let x i = Index (g.Blockgen.state "x", Int_lit i) in
      let u = Var (g.Blockgen.name ^ "_u") in
      (* the sums accumulate left to right from the input term *)
      let dot first coefs xs =
        List.fold_left
          (fun acc j -> Bin ("+", acc, Bin ("*", flt coefs.(j), xs j)))
          first (List.init n Fun.id)
      in
      Blockgen.
        {
          nothing with
          state_fields = [ (Arr (Double_t, n), "x") ];
          init =
            [
              For
                ( Decl (I32, "i", Some (Int_lit 0)),
                  Bin ("<", Var "i", Int_lit n),
                  Expr (Un ("++", Var "i")),
                  [ Assign (Index (g.Blockgen.state "x", Var "i"), flt 0.0) ] );
            ];
          step = [ Assign (out0 g, dot (Bin ("*", flt d, in0 g)) c_vec x) ];
          update =
            Comment
              (Printf.sprintf
                 "held-input RK4 over one %g s step (4 derivative evaluations)" dt)
            :: Decl (Double_t, g.Blockgen.name ^ "_u", Some (in0 g))
            :: rk4 ~name:g.Blockgen.name ~dt ~n x (fun xs ->
                   Array.init n (fun i ->
                       dot (Bin ("*", flt b_vec.(i), u))
                         (Array.sub a_flat (i * n) n) xs));
        }
  | "DcMotor" ->
      let nm = g.Blockgen.name in
      let x i = Index (g.Blockgen.state "x", Int_lit i) in
      let u = Var (nm ^ "_u") and tau = Var (nm ^ "_tau") in
      Blockgen.
        {
          needs_time = true;
          state_fields = [ (Arr (Double_t, 3), "x") ];
          init = List.init 3 (fun i -> Assign (x i, flt 0.0));
          step =
            [
              Assign (out0 g, x 1);
              Assign (out_ g 1, x 2);
              Assign (out_ g 2, x 0);
            ];
          update =
            Comment "electro-mechanical DC motor, held-input RK4"
            :: Decl (Double_t, nm ^ "_u", Some (in0 g))
            :: Decl (Double_t, nm ^ "_tau", Some (load_torque_expr ps (x 1)))
            :: rk4 ~name:nm ~dt ~n:3 x (fun xs ->
                   let i = xs 0 in
                   let w = xs 1 in
                   [|
                     (* di/dt = (u - ra i - ke w) / la *)
                     Bin
                       ( "/",
                         Bin ("-", Bin ("-", u, Bin ("*", flt (pf "ra"), i)),
                              Bin ("*", flt (pf "ke"), w)),
                         flt (pf "la") );
                     (* dw/dt = (kt i - b w - tau) / j *)
                     Bin
                       ( "/",
                         Bin ("-", Bin ("-", Bin ("*", flt (pf "kt"), i),
                                        Bin ("*", flt (pf "b"), w)), tau),
                         flt (pf "j") );
                     (* dtheta/dt = w *)
                     w;
                   |]);
        }
  | "PowerStage" ->
      let supply = pf "u_supply" and r_on = pf "r_on" in
      let dead = pf "dead_time_frac" in
      let bipolar = Param.bool ps "bipolar" in
      let nm = g.Blockgen.name in
      let duty_eff =
        Bin ("-", Var (nm ^ "_d"), flt dead)
      in
      Blockgen.
        {
          nothing with
          step =
            [
              Decl (Double_t, nm ^ "_d", Some (in0 g));
              If (Bin ("<", Var (nm ^ "_d"), flt 0.0),
                  [ Assign (Var (nm ^ "_d"), flt 0.0) ], []);
              If (Bin (">", Var (nm ^ "_d"), flt 1.0),
                  [ Assign (Var (nm ^ "_d"), flt 1.0) ], []);
              Decl
                ( Double_t, nm ^ "_de",
                  Some (Ternary (Bin (">", duty_eff, flt 0.0), duty_eff, flt 0.0)) );
              Assign
                ( out0 g,
                  Bin
                    ( "-",
                      (if bipolar then
                         Bin ("*",
                              Bin ("-", Bin ("*", flt 2.0, Var (nm ^ "_de")), flt 1.0),
                              flt supply)
                       else Bin ("*", Var (nm ^ "_de"), flt supply)),
                      Bin ("*", flt r_on, List.nth g.Blockgen.ins 1) ) );
            ];
        }
  | "EncoderCounts" ->
      let cpr = 4 * Param.int ps "lines_per_rev" in
      Blockgen.
        {
          nothing with
          step =
            [
              Assign
                ( out0 g,
                  Cast_to
                    ( I32,
                      call "floor"
                        [
                          Bin ("*", Bin ("/", in0 g, flt (2.0 *. Float.pi)),
                               flt (float_of_int cpr));
                        ] ) );
            ];
        }
  | "ThermalPlant" ->
      (* exact exponential update of the linear thermal model *)
      let c_th = pf "c_th" and r_th = pf "r_th" in
      let t_amb = pf "t_amb" and p_max = pf "p_max" in
      let a = exp (-.dt /. (r_th *. c_th)) in
      let nm = g.Blockgen.name in
      Blockgen.
        {
          nothing with
          state_fields = [ (Double_t, "temp") ];
          init = [ Assign (g.Blockgen.state "temp", flt t_amb) ];
          step = [ Assign (out0 g, g.Blockgen.state "temp") ];
          update =
            [
              Decl (Double_t, nm ^ "_p", Some (in0 g));
              If (Bin ("<", Var (nm ^ "_p"), flt 0.0),
                  [ Assign (Var (nm ^ "_p"), flt 0.0) ], []);
              If (Bin (">", Var (nm ^ "_p"), flt p_max),
                  [ Assign (Var (nm ^ "_p"), flt p_max) ], []);
              Decl
                ( Double_t, nm ^ "_tinf",
                  Some (Bin ("+", flt t_amb, Bin ("*", Var (nm ^ "_p"), flt r_th))) );
              Assign
                ( g.Blockgen.state "temp",
                  Bin ("+", Var (nm ^ "_tinf"),
                       Bin ("*", flt a,
                            Bin ("-", g.Blockgen.state "temp", Var (nm ^ "_tinf")))) );
            ];
        }
  | _ -> Blockgen.emit g spec


let supported_sim spec =
  match spec.Block.kind with
  | "Integrator" | "FirstOrder" | "TransferFcn" | "StateSpace" | "DcMotor"
  | "PowerStage" | "EncoderCounts" | "ThermalPlant" ->
      true
  | _ -> Blockgen.supported spec
