(* WAL-backed recovery under repeated and dirty crashes: replaying the same
   log must converge to the same table (idempotence), and a torn tail — the
   on-disk shape of a partial write — must lose exactly the unflushed
   suffix, never anything before it. *)

module Wal = Dcp_stable.Wal
module Store = Dcp_stable.Store
module Disk = Dcp_stable.Disk
module Rng = Dcp_rng.Rng

(* A disk whose only fault is a certain tear of the in-flight record. *)
let tearing_store () = Store.create ~disk:({ Disk.none with tear_p = 1.0 }, Rng.create ~seed:7) ()

let dump store =
  List.sort compare (Store.fold store ~init:[] ~f:(fun ~key value acc -> (key, value) :: acc))

(* ---- replay idempotence ---- *)

let test_recover_idempotent () =
  let store = Store.create () in
  Store.set store ~key:"a" "1";
  Store.set store ~key:"b" "2";
  Store.remove store ~key:"a";
  Store.set store ~key:"a" "3";
  let before = dump store in
  Store.crash store;
  let replayed = Store.recover store in
  Alcotest.(check int) "every mutation replayed" 4 replayed;
  Alcotest.(check (list (pair string string))) "first recovery" before (dump store);
  (* Crash/recover again without new writes: same log, same table, same
     replay count — replay is a pure function of the log. *)
  for round = 1 to 3 do
    Store.crash store;
    let again = Store.recover store in
    Alcotest.(check int) (Printf.sprintf "round %d replay count" round) replayed again;
    Alcotest.(check (list (pair string string)))
      (Printf.sprintf "round %d table" round)
      before (dump store)
  done

let test_recover_without_crash_is_noop () =
  let store = Store.create () in
  Store.set store ~key:"k" "v";
  Alcotest.(check int) "no-op recover" 0 (Store.recover store);
  Alcotest.(check (option string)) "table untouched" (Some "v") (Store.get store ~key:"k")

let test_recover_idempotent_across_checkpoint () =
  let store = Store.create () in
  Store.set store ~key:"kept" "old";
  Store.set store ~key:"gone" "x";
  Store.checkpoint store;
  Store.set store ~key:"kept" "new";
  Store.remove store ~key:"gone";
  let before = dump store in
  for round = 1 to 2 do
    Store.crash store;
    Alcotest.(check int)
      (Printf.sprintf "round %d: only post-checkpoint tail replays" round)
      2 (Store.recover store);
    Alcotest.(check (list (pair string string)))
      (Printf.sprintf "round %d: snapshot+tail table" round)
      before (dump store)
  done

(* ---- torn tail: the partial write ---- *)

let test_torn_tail_loses_only_last_record () =
  let store = tearing_store () in
  Store.set store ~key:"a" "1";
  Store.set store ~key:"b" "2";
  Store.set store ~key:"c" "3";
  (* tear_p = 1.0: the newest record's CRC is certainly damaged mid-write. *)
  Store.crash store;
  let replayed = Store.recover store in
  Alcotest.(check int) "torn record not replayed" 2 replayed;
  Alcotest.(check (list (pair string string)))
    "prefix intact, unflushed suffix gone"
    [ ("a", "1"); ("b", "2") ]
    (dump store)

let test_torn_tail_then_new_writes_survive () =
  let store = tearing_store () in
  Store.set store ~key:"a" "1";
  Store.set store ~key:"doomed" "x";
  Store.crash store;
  ignore (Store.recover store);
  Alcotest.(check (option string)) "torn write lost" None (Store.get store ~key:"doomed");
  (* recover must have repaired (physically dropped) the torn record:
     otherwise this append would sit behind a bad-CRC barrier and silently
     vanish on the next replay. *)
  Store.set store ~key:"after" "2";
  Store.flush store;
  Store.crash store;
  ignore (Store.recover store);
  Alcotest.(check (list (pair string string)))
    "post-repair appends durable"
    [ ("a", "1"); ("after", "2") ]
    (dump store)

let test_torn_tail_after_checkpoint () =
  let store = tearing_store () in
  Store.set store ~key:"safe" "1";
  Store.checkpoint store;
  Store.set store ~key:"tail" "2";
  Store.crash store;
  Alcotest.(check int) "torn tail leaves nothing to replay" 0 (Store.recover store);
  Alcotest.(check (list (pair string string)))
    "checkpointed data immune to the tear"
    [ ("safe", "1") ]
    (dump store)

(* ---- WAL-level: a bad CRC is quarantined, scrub makes it physical ---- *)

let test_wal_bad_crc_quarantined () =
  let wal = Wal.create () in
  ignore (Wal.append wal "a");
  ignore (Wal.append wal "b");
  ignore (Wal.tear_unflushed wal);
  (* Appending past an unscrubbed tear: the damaged record is skipped but
     must never hide the intact suffix behind it. *)
  ignore (Wal.append wal "c");
  Alcotest.(check (list string)) "replay skips the bad CRC" [ "a"; "c" ] (Wal.records wal);
  let r = Wal.scrub wal in
  Alcotest.(check int) "scrub quarantines only the torn record" 1 r.Wal.quarantined;
  Alcotest.(check (list string)) "post-scrub replay" [ "a"; "c" ] (Wal.records wal);
  ignore (Wal.append wal "d");
  Alcotest.(check (list string)) "log usable again" [ "a"; "c"; "d" ] (Wal.records wal)

(* A long log exercises the verified-prefix cache where it matters: reads
   after the first must not change what replay sees, and a torn tail must
   still lose exactly the newest record. *)
let test_long_log_torn_tail () =
  let wal = Wal.create () in
  for i = 0 to 999 do
    ignore (Wal.append wal (string_of_int i))
  done;
  Alcotest.(check int) "all intact" 1000 (Wal.length wal);
  ignore (Wal.tear_unflushed wal);
  Alcotest.(check int) "exactly the newest lost" 999 (Wal.length wal);
  let count () =
    let n = ref 0 in
    Wal.replay wal (fun _ _ -> incr n);
    !n
  in
  Alcotest.(check int) "replay = length" 999 (count ());
  Alcotest.(check int) "replay idempotent" 999 (count ());
  Alcotest.(check int) "scrub drops one" 1 (Wal.scrub wal).Wal.quarantined;
  Alcotest.(check int) "post-scrub length" 999 (Wal.length wal)

let tests =
  [
    Alcotest.test_case "recover is idempotent" `Quick test_recover_idempotent;
    Alcotest.test_case "recover without crash is a no-op" `Quick test_recover_without_crash_is_noop;
    Alcotest.test_case "idempotent across checkpoint" `Quick test_recover_idempotent_across_checkpoint;
    Alcotest.test_case "torn tail loses only the last record" `Quick
      test_torn_tail_loses_only_last_record;
    Alcotest.test_case "writes after a torn-tail recovery survive" `Quick
      test_torn_tail_then_new_writes_survive;
    Alcotest.test_case "torn tail after checkpoint" `Quick test_torn_tail_after_checkpoint;
    Alcotest.test_case "bad CRC is quarantined, never a barrier" `Quick
      test_wal_bad_crc_quarantined;
    Alcotest.test_case "long log: torn tail and idempotent replay" `Quick
      test_long_log_torn_tail;
  ]
