type t =
  | No_load
  | Constant of float
  | Viscous of float
  | Step of { at : float; torque : float }
  | Pulse of { start : float; stop : float; torque : float }
  | Pulse_train of { start : float; width : float; period : float; torque : float }
  | Sum of t list

let rec torque t ~time ~w =
  match t with
  | No_load -> 0.0
  | Constant tau -> tau
  | Viscous k -> k *. w
  | Step { at; torque = tau } -> if time >= at then tau else 0.0
  | Pulse { start; stop; torque = tau } ->
      if time >= start && time < stop then tau else 0.0
  | Pulse_train { start; width; period; torque = tau } ->
      (* the window test of a recurring fault ([Fault.active]) *)
      if time >= start && Float.rem (time -. start) period < width then tau
      else 0.0
  | Sum l -> List.fold_left (fun acc p -> acc +. torque p ~time ~w) 0.0 l

let rec to_string t =
  let f = Printf.sprintf "%.17g" in
  let call name args = name ^ "(" ^ String.concat "," args ^ ")" in
  match t with
  | No_load -> "none"
  | Constant tau -> call "constant" [ f tau ]
  | Viscous k -> call "viscous" [ f k ]
  | Step { at; torque } -> call "step" [ f at; f torque ]
  | Pulse { start; stop; torque } -> call "pulse" [ f start; f stop; f torque ]
  | Pulse_train { start; width; period; torque } ->
      call "pulse_train" [ f start; f width; f period; f torque ]
  | Sum l -> call "sum" (List.map to_string l)
