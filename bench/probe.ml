(* Direct (non-bechamel) measurement of the in-simulator message hot path:
   one client does [pings] ping/pong round trips against an echo guardian in
   a world also hosting [idle] other guardians.  Per-message cost that grows
   with [idle] means an O(#guardians) scan survives on the delivery path.

   Run with:  dune exec bench/probe.exe -- <idle> <pings>  *)

let () =
  let idle = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 0 in
  let pings = if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 50_000 in
  let round_trips = Echo.round_trip_world ~seed:7 ~idle ~prefix:"probe" ~pings in
  let t0 = Sys.time () in
  round_trips ();
  let t1 = Sys.time () in
  Printf.printf "idle=%-6d pings=%d  %8.1f ns/round-trip\n" idle pings
    ((t1 -. t0) *. 1e9 /. float_of_int pings)
