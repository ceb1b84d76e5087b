(* Stable storage: WAL and recoverable store, including torn-tail crashes. *)

module Wal = Dcp_stable.Wal
module Store = Dcp_stable.Store
module Disk = Dcp_stable.Disk
module Rng = Dcp_rng.Rng

(* ---- WAL ---- *)

let test_wal_append_replay () =
  let wal = Wal.create () in
  let l0 = Wal.append wal "first" in
  let l1 = Wal.append wal "second" in
  Alcotest.(check int) "dense lsns" 1 (l1 - l0);
  let seen = ref [] in
  Wal.replay wal (fun lsn payload -> seen := (lsn, payload) :: !seen);
  Alcotest.(check (list (pair int string)))
    "in order"
    [ (0, "first"); (1, "second") ]
    (List.rev !seen)

let test_wal_records () =
  let wal = Wal.create () in
  ignore (Wal.append wal "a");
  ignore (Wal.append wal "b");
  Alcotest.(check (list string)) "records" [ "a"; "b" ] (Wal.records wal)

let test_wal_truncate () =
  let wal = Wal.create () in
  for i = 0 to 4 do
    ignore (Wal.append wal (string_of_int i))
  done;
  Wal.truncate_prefix wal ~upto:3;
  Alcotest.(check (list string)) "kept tail" [ "3"; "4" ] (Wal.records wal);
  Alcotest.(check int) "first lsn" 3 (Wal.first_lsn wal);
  Alcotest.(check int) "next lsn unchanged" 5 (Wal.next_lsn wal)

let test_wal_tear_unflushed_tail () =
  let wal = Wal.create () in
  ignore (Wal.append wal "safe");
  ignore (Wal.append wal "doomed");
  let torn = Wal.tear_unflushed wal in
  Alcotest.(check bool) "tear happened" true torn;
  Alcotest.(check (list string)) "tail dropped by replay" [ "safe" ] (Wal.records wal)

let test_wal_tear_never () =
  let wal = Wal.create () in
  ignore (Wal.append wal "x");
  Wal.flush wal;
  Alcotest.(check bool) "a flushed record never tears" false (Wal.tear_unflushed wal);
  Alcotest.(check int) "intact" 1 (Wal.length wal)

let test_wal_tear_empty () =
  let wal = Wal.create () in
  Alcotest.(check bool) "empty log cannot tear" false (Wal.tear_unflushed wal)

(* The verified-prefix cache must never outlive the facts it caches: a
   read primes it, a tear damages the newest record behind it, and every
   subsequent read has to quarantine the damaged record. *)
let test_wal_cache_invalidated_by_tear () =
  let wal = Wal.create () in
  ignore (Wal.append wal "a");
  ignore (Wal.append wal "b");
  ignore (Wal.append wal "c");
  Alcotest.(check int) "cache primed" 3 (Wal.length wal);
  Alcotest.(check bool) "tear happened" true (Wal.tear_unflushed wal);
  Alcotest.(check int) "cached prefix pulled back" 2 (Wal.length wal);
  ignore (Wal.append wal "d");
  Alcotest.(check (list string))
    "quarantine skips the tear, keeps the suffix" [ "a"; "b"; "d" ] (Wal.records wal);
  let r = Wal.scrub wal in
  Alcotest.(check int) "scrub quarantines the torn record" 1 r.Wal.quarantined;
  Alcotest.(check int) "no mirror, nothing salvageable" 0 r.Wal.salvaged;
  ignore (Wal.append wal "e");
  Alcotest.(check (list string)) "log usable again" [ "a"; "b"; "d"; "e" ] (Wal.records wal)

let test_wal_truncate_after_verify () =
  let wal = Wal.create () in
  for i = 0 to 4 do
    ignore (Wal.append wal (string_of_int i))
  done;
  Alcotest.(check int) "verify everything first" 5 (Wal.length wal);
  Wal.truncate_prefix wal ~upto:3;
  Alcotest.(check (list string)) "tail survives the shift" [ "3"; "4" ] (Wal.records wal);
  Alcotest.(check int) "length after shift" 2 (Wal.length wal);
  ignore (Wal.tear_unflushed wal);
  Alcotest.(check (list string)) "tear still lands on the newest" [ "3" ] (Wal.records wal)

let test_wal_storage_bytes_accounting () =
  let wal = Wal.create () in
  let l0 = Wal.append wal "abcd" in
  ignore (Wal.append wal "ef") ;
  (* 12 bytes of header accounting per record, damaged or not *)
  Alcotest.(check int) "two records" (4 + 2 + 24) (Wal.storage_bytes wal);
  ignore (Wal.tear_unflushed wal);
  Alcotest.(check int) "tear does not change accounting" (4 + 2 + 24) (Wal.storage_bytes wal);
  ignore (Wal.scrub wal);
  Alcotest.(check int) "scrub reclaims the quarantined tail" (4 + 12) (Wal.storage_bytes wal);
  Wal.truncate_prefix wal ~upto:(l0 + 1);
  Alcotest.(check int) "truncate reclaims the prefix" 0 (Wal.storage_bytes wal)

let prop_wal_replay_prefix =
  QCheck2.Test.make ~name:"WAL replay returns exactly what was appended" ~count:200
    QCheck2.Gen.(list_size (int_range 0 50) (string_size (int_range 0 30)))
    (fun payloads ->
      let wal = Wal.create () in
      List.iter (fun p -> ignore (Wal.append wal p)) payloads;
      Wal.records wal = payloads)

(* ---- Store ---- *)

let test_store_basics () =
  let s = Store.create () in
  Store.set s ~key:"a" "1";
  Store.set s ~key:"b" "2";
  Store.set s ~key:"a" "3";
  Alcotest.(check (option string)) "overwrite" (Some "3") (Store.get s ~key:"a");
  Alcotest.(check int) "size" 2 (Store.size s);
  Store.remove s ~key:"a";
  Alcotest.(check (option string)) "removed" None (Store.get s ~key:"a");
  Alcotest.(check bool) "mem" true (Store.mem s ~key:"b")

let test_store_fold () =
  let s = Store.create () in
  Store.set s ~key:"x" "1";
  Store.set s ~key:"y" "2";
  let sum =
    Store.fold s ~init:0 ~f:(fun ~key:_ value acc -> acc + int_of_string value)
  in
  Alcotest.(check int) "fold" 3 sum

let test_store_crash_recover () =
  let s = Store.create () in
  Store.set s ~key:"k" "before";
  Store.crash s;
  Alcotest.(check bool) "crashed" true (Store.is_crashed s);
  Alcotest.check_raises "access while crashed"
    (Invalid_argument "Store: node is crashed; recover first") (fun () ->
      ignore (Store.get s ~key:"k"));
  let replayed = Store.recover s in
  Alcotest.(check bool) "replayed something" true (replayed >= 1);
  Alcotest.(check (option string)) "value survived" (Some "before") (Store.get s ~key:"k")

let test_store_recover_with_removes () =
  let s = Store.create () in
  Store.set s ~key:"a" "1";
  Store.set s ~key:"b" "2";
  Store.remove s ~key:"a";
  Store.crash s;
  ignore (Store.recover s);
  Alcotest.(check (option string)) "removed stays removed" None (Store.get s ~key:"a");
  Alcotest.(check (option string)) "kept" (Some "2") (Store.get s ~key:"b")

let test_store_checkpoint_shrinks_log () =
  let s = Store.create () in
  for i = 0 to 99 do
    Store.set s ~key:(string_of_int (i mod 10)) (string_of_int i)
  done;
  Alcotest.(check int) "log grew" 100 (Store.log_length s);
  (* Checkpoints are double-buffered: the first generation truncates
     nothing (the log alone must still rebuild the store), the second
     compacts everything the older generation covers. *)
  Store.checkpoint s;
  Alcotest.(check int) "first checkpoint keeps the log" 100 (Store.log_length s);
  Store.set s ~key:"9" "99";
  Store.checkpoint s;
  Alcotest.(check int) "second checkpoint compacts the prefix" 1 (Store.log_length s);
  Store.crash s;
  ignore (Store.recover s);
  Alcotest.(check int) "table rebuilt from snapshot" 10 (Store.size s);
  Alcotest.(check (option string)) "latest values" (Some "99") (Store.get s ~key:"9")

let test_store_torn_tail_loses_last_write_only () =
  let s = Store.create ~disk:({ Disk.none with tear_p = 1.0 }, Rng.create ~seed:1) () in
  Store.set s ~key:"a" "1";
  Store.set s ~key:"b" "2";
  Store.crash s;
  ignore (Store.recover s);
  Alcotest.(check (option string)) "first write safe" (Some "1") (Store.get s ~key:"a");
  Alcotest.(check (option string)) "torn write gone" None (Store.get s ~key:"b")

let test_store_recover_idempotent () =
  let s = Store.create () in
  Store.set s ~key:"k" "v";
  Alcotest.(check int) "recover when live is a no-op" 0 (Store.recover s)

let test_store_double_crash_cycle () =
  let s = Store.create () in
  Store.set s ~key:"k" "v1";
  Store.crash s;
  ignore (Store.recover s);
  Store.set s ~key:"k" "v2";
  Store.checkpoint s;
  Store.crash s;
  ignore (Store.recover s);
  Alcotest.(check (option string)) "second cycle" (Some "v2") (Store.get s ~key:"k")

(* qcheck: the store after crash+recover equals a model map, for arbitrary
   operation sequences (no tear). *)
let prop_store_matches_model =
  let op_gen =
    QCheck2.Gen.(
      oneof
        [
          map2 (fun k v -> `Set (string_of_int k, string_of_int v)) (int_range 0 20) int;
          map (fun k -> `Remove (string_of_int k)) (int_range 0 20);
          return `Checkpoint;
          return `Crash_recover;
        ])
  in
  QCheck2.Test.make ~name:"store equals model under random ops" ~count:200
    QCheck2.Gen.(list_size (int_range 0 60) op_gen)
    (fun ops ->
      let s = Store.create () in
      let model = Hashtbl.create 16 in
      List.iter
        (function
          | `Set (k, v) ->
              Store.set s ~key:k v;
              Hashtbl.replace model k v
          | `Remove k ->
              Store.remove s ~key:k;
              Hashtbl.remove model k
          | `Checkpoint -> Store.checkpoint s
          | `Crash_recover ->
              Store.crash s;
              ignore (Store.recover s))
        ops;
      Hashtbl.fold (fun k v acc -> acc && Store.get s ~key:k = Some v) model (Store.size s = Hashtbl.length model))

let tests =
  [
    Alcotest.test_case "wal append/replay" `Quick test_wal_append_replay;
    Alcotest.test_case "wal records" `Quick test_wal_records;
    Alcotest.test_case "wal truncate" `Quick test_wal_truncate;
    Alcotest.test_case "wal tear tail" `Quick test_wal_tear_unflushed_tail;
    Alcotest.test_case "wal tear p=0" `Quick test_wal_tear_never;
    Alcotest.test_case "wal tear empty" `Quick test_wal_tear_empty;
    Alcotest.test_case "wal verified cache vs tear" `Quick test_wal_cache_invalidated_by_tear;
    Alcotest.test_case "wal truncate after verify" `Quick test_wal_truncate_after_verify;
    Alcotest.test_case "wal storage accounting" `Quick test_wal_storage_bytes_accounting;
    QCheck_alcotest.to_alcotest prop_wal_replay_prefix;
    Alcotest.test_case "store basics" `Quick test_store_basics;
    Alcotest.test_case "store fold" `Quick test_store_fold;
    Alcotest.test_case "store crash/recover" `Quick test_store_crash_recover;
    Alcotest.test_case "store recover removes" `Quick test_store_recover_with_removes;
    Alcotest.test_case "store checkpoint" `Quick test_store_checkpoint_shrinks_log;
    Alcotest.test_case "store torn tail" `Quick test_store_torn_tail_loses_last_write_only;
    Alcotest.test_case "store recover idempotent" `Quick test_store_recover_idempotent;
    Alcotest.test_case "store crash cycle" `Quick test_store_double_crash_cycle;
    QCheck_alcotest.to_alcotest prop_store_matches_model;
  ]
