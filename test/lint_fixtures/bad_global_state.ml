(* Lint fixture: module-level mutable state outlives every world in the
   process, so a second world built in it starts from what the first left
   behind. *)
let next_id = ref 0

let fresh =
  let n = ref 0 in
  fun () ->
    incr n;
    !n

module Cache = struct
  let table : (string, int) Hashtbl.t = Hashtbl.create 16
end

let pending = Some (Queue.create ())

(* Exempt: allocation per call, a temporary not kept by the value, a
   program body. *)
let counter () = ref 0

let squares =
  let t = Array.make 4 0 in
  for i = 0 to 3 do
    let sq = ref i in
    sq := !sq * i;
    t.(i) <- !sq
  done;
  t

let () =
  let scratch = Buffer.create 4 in
  Buffer.add_string scratch "done";
  print_string (Buffer.contents scratch)
