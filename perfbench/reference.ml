(* A fixed reference workload for the benchmark's speed calibration.

   The machine the benchmark runs on changes speed by tens of percent
   over tens of seconds. This program does the same kind of work as the
   analysis -- many small allocations, string-keyed hash tables, list
   sorting and major collections -- and never changes, so the time it
   takes measures the machine's speed at that moment. It depends on no
   code of the repository. *)

let () =
  let n = 15_000 in
  let h = Hashtbl.create 1024 in
  for i = 0 to n do
    Hashtbl.replace h (string_of_int ((i * 7919) land 0xfffff)) [ i; i + 1 ]
  done;
  let l =
    Hashtbl.fold
      (fun k v acc -> if String.length k > 3 then (k, v) :: acc else acc)
      h []
  in
  let sorted = List.sort compare l in
  Gc.full_major ();
  Printf.printf "%d\n" (List.length sorted)
