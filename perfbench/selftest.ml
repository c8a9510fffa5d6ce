(* The exact counts must repeat identically across two runs at one
   workload seed: they are the machine-independent companions of the
   timed metrics, so a later change may rest a claim on them. Silent on
   success. *)

open Perfbench

let () =
  Flight.set_enabled true;
  let failures = ref 0 in
  List.iter
    (fun (w : Jobs.t) ->
      let first = Layers.exact_counts w in
      let second = Layers.exact_counts w in
      List.iter2
        (fun (name, a) (_, b) ->
          if not (Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
          then begin
            incr failures;
            Printf.printf "%s %s: %.17g then %.17g\n" w.Jobs.name name a b
          end)
        first second)
    Jobs.all;
  if !failures > 0 then exit 1
