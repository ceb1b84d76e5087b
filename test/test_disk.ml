(* The disk-fault plane: the injector's draw semantics, the checkpoint
   frame's total parser, mirror salvage vs sector-rot quarantine, the
   double-buffered checkpoint fallback, and qcheck properties tying
   compacted recovery to full-log replay. *)

module Disk = Dcp_stable.Disk
module Checkpoint = Dcp_stable.Checkpoint
module Wal = Dcp_stable.Wal
module Store = Dcp_stable.Store
module Rng = Dcp_rng.Rng

let dump store =
  List.sort compare (Store.fold store ~init:[] ~f:(fun ~key value acc -> (key, value) :: acc))

(* ---- injector draws ---- *)

let test_disk_none_draws_nothing () =
  let d = Disk.create Disk.none (Rng.create ~seed:1) in
  Alcotest.(check bool) "is_none" true (Disk.is_none Disk.none);
  Alcotest.(check bool) "flaky is not none" false (Disk.is_none Disk.flaky);
  for _ = 1 to 100 do
    Alcotest.(check (option int)) "no stall" None (Disk.draw_stall d);
    Alcotest.(check bool) "no drop" false (Disk.draw_drop d);
    Alcotest.(check bool) "no tear" false (Disk.draw_tear d);
    Alcotest.(check (option (pair int bool))) "no rot" None (Disk.draw_rot d ~targets:10)
  done

let test_disk_flaky_draws_bounded () =
  let d = Disk.create Disk.flaky (Rng.create ~seed:2) in
  let stalls = ref 0 in
  for _ = 1 to 1000 do
    (match Disk.draw_stall d with
    | None -> ()
    | Some ms ->
        incr stalls;
        Alcotest.(check bool) "stall within spec" true (ms >= 1 && ms <= Disk.flaky.Disk.stall_ms));
    match Disk.draw_rot d ~targets:7 with
    | None -> ()
    | Some (victim, sector) ->
        Alcotest.(check bool) "victim in range" true (victim >= 0 && victim < 7);
        (* flaky never destroys the mirror copy *)
        Alcotest.(check bool) "no sector loss under flaky" false sector
  done;
  Alcotest.(check bool) "stall probability bites" true (!stalls > 0)

let test_disk_deterministic () =
  let draw seed =
    let d = Disk.create Disk.flaky (Rng.create ~seed) in
    List.init 50 (fun _ -> (Disk.draw_stall d, Disk.draw_drop d, Disk.draw_rot d ~targets:5))
  in
  Alcotest.(check bool) "same seed, same draws" true (draw 42 = draw 42);
  Alcotest.(check bool) "different seed, different draws" true (draw 42 <> draw 43)

(* ---- checkpoint frames ---- *)

let test_checkpoint_roundtrip () =
  let pairs = [ ("a:b;c", "1;2:3"); ("binary", "\x00\xff\n"); ("z", "") ] in
  let pairs = List.sort compare pairs in
  let blob = Checkpoint.make ~upto:17 pairs in
  (match Checkpoint.restore blob with
  | None -> Alcotest.fail "restore failed on an intact frame"
  | Some (upto, restored) ->
      Alcotest.(check int) "upto" 17 upto;
      Alcotest.(check (list (pair string string))) "pairs" pairs restored);
  Alcotest.(check (option int)) "upto accessor" (Some 17) (Checkpoint.upto blob)

let test_checkpoint_any_flip_detected () =
  let blob = Checkpoint.make ~upto:3 [ ("key", "value"); ("k2", "v2") ] in
  for pos = 0 to String.length blob - 1 do
    let b = Bytes.of_string blob in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
    match Checkpoint.restore (Bytes.to_string b) with
    | None -> ()
    | Some (upto, pairs) ->
        Alcotest.failf "flip at byte %d went undetected (upto=%d, %d pairs)" pos upto
          (List.length pairs)
  done

let test_checkpoint_truncated_detected () =
  let blob = Checkpoint.make ~upto:5 [ ("k", "v") ] in
  for len = 0 to String.length blob - 1 do
    match Checkpoint.restore (String.sub blob 0 len) with
    | None -> ()
    | Some _ -> Alcotest.failf "truncation to %d bytes went undetected" len
  done

(* ---- crash-time faults through the store ---- *)

let spec_only f = f Disk.none

let store_with spec = Store.create ~disk:(spec, Rng.create ~seed:9) ()

let test_drop_loses_unflushed_only () =
  let s = store_with (spec_only (fun d -> { d with Disk.drop_p = 1.0 })) in
  Store.set s ~key:"old" "1";
  Store.flush s;
  Store.set s ~key:"lost1" "x";
  Store.set s ~key:"lost2" "y";
  Store.crash s;
  let r = Store.recover_report s in
  Alcotest.(check int) "both unflushed dropped" 2 r.Store.dropped_unflushed;
  Alcotest.(check (list (pair string string))) "flushed prefix intact" [ ("old", "1") ] (dump s)

let test_tear_loses_last_unflushed_only () =
  let s = store_with (spec_only (fun d -> { d with Disk.tear_p = 1.0 })) in
  Store.set s ~key:"old" "1";
  Store.flush s;
  Store.set s ~key:"kept" "x";
  Store.set s ~key:"torn" "y";
  Store.crash s;
  let r = Store.recover_report s in
  Alcotest.(check int) "torn record quarantined" 1 r.Store.quarantined;
  Alcotest.(check (list (pair string string)))
    "only the in-flight record lost"
    [ ("kept", "x"); ("old", "1") ]
    (dump s)

let test_rot_salvaged_from_mirror () =
  let s = store_with (spec_only (fun d -> { d with Disk.rot_p = 1.0 })) in
  Store.set s ~key:"a" "1";
  Store.set s ~key:"b" "2";
  Store.flush s;
  Store.crash s;
  let r = Store.recover_report s in
  Alcotest.(check int) "rot healed from the mirror" 1 r.Store.salvaged;
  Alcotest.(check int) "nothing quarantined" 0 r.Store.quarantined;
  Alcotest.(check (list (pair string string))) "no data lost" [ ("a", "1"); ("b", "2") ] (dump s)

let test_sector_rot_quarantined () =
  (* sector_p = 1: the rot takes the mirror with it, so salvage is
     impossible and recovery must drop the record and keep going. *)
  let s = store_with (spec_only (fun d -> { d with Disk.rot_p = 1.0; sector_p = 1.0 })) in
  Store.set s ~key:"a" "1";
  Store.set s ~key:"b" "2";
  Store.flush s;
  Store.crash s;
  let r = Store.recover_report s in
  Alcotest.(check int) "beyond salvage" 1 r.Store.quarantined;
  Alcotest.(check int) "exactly one key lost" 1 (Store.size s);
  Alcotest.(check (result unit string)) "still internally consistent" (Ok ())
    (Result.map_error (fun _ -> "durability_check failed") (Store.durability_check s))

let test_stall_handler_invoked () =
  let s = store_with (spec_only (fun d -> { d with Disk.stall_p = 1.0; stall_ms = 7 })) in
  let calls = ref 0 in
  Store.set_stall_handler s (fun ms ->
      incr calls;
      Alcotest.(check bool) "stall bounded" true (ms >= 1 && ms <= 7));
  Store.set s ~key:"k" "v";
  Store.remove s ~key:"k";
  Alcotest.(check int) "one stall per mutation" 2 !calls

(* ---- double-buffered checkpoints: satellite regression ---- *)

(* Damage inside the newest checkpoint frame must fall back to the previous
   generation plus the longer log suffix — never to an empty store. *)
let test_checkpoint_damage_falls_back () =
  let s = Store.create () in
  Store.set s ~key:"a" "1";
  Store.checkpoint s;
  Store.set s ~key:"b" "2";
  Store.checkpoint s;
  Store.set s ~key:"c" "3";
  Alcotest.(check int) "two generations retained" 2 (Store.checkpoint_count s);
  Alcotest.(check bool) "newest generation damaged" true (Store.damage_newest_checkpoint s);
  Store.crash s;
  let r = Store.recover_report s in
  Alcotest.(check int) "one generation fell back" 1 r.Store.checkpoint_fallbacks;
  Alcotest.(check (list (pair string string)))
    "previous generation + suffix rebuild everything"
    [ ("a", "1"); ("b", "2"); ("c", "3") ]
    (dump s);
  (* Redundancy is restored immediately: damage consumed a generation, so
     recovery wrote a fresh one. *)
  Alcotest.(check int) "re-checkpointed after damage" 2 (Store.checkpoint_count s)

(* Before a second generation exists the log is never truncated, so even
   losing the only checkpoint loses nothing. *)
let test_first_checkpoint_damage_harmless () =
  let s = Store.create () in
  Store.set s ~key:"a" "1";
  Store.set s ~key:"b" "2";
  Store.checkpoint s;
  Alcotest.(check bool) "only generation damaged" true (Store.damage_newest_checkpoint s);
  Store.crash s;
  let r = Store.recover_report s in
  Alcotest.(check int) "fallback counted" 1 r.Store.checkpoint_fallbacks;
  Alcotest.(check (list (pair string string)))
    "full log replay rebuilds the table"
    [ ("a", "1"); ("b", "2") ]
    (dump s)

(* ---- O(suffix) recovery gate ---- *)

(* Recovery cost is the log suffix past the checkpoint, independent of how
   much history came before it: a 10x longer history replays exactly the
   same number of records.  This is the cheap runtest twin of the
   wal.recover bench rows. *)
let test_recovery_is_o_suffix () =
  let replayed_after entries =
    let s = Store.create ~checkpoint_every:100 () in
    for i = 1 to entries do
      Store.set s ~key:(string_of_int (i mod 250)) (string_of_int i)
    done;
    Store.flush s;
    Store.crash s;
    let r = Store.recover_report s in
    Alcotest.(check (result unit string)) "consistent after recovery" (Ok ())
      (Result.map_error (fun _ -> "durability_check failed") (Store.durability_check s));
    r.Store.replayed
  in
  let small = replayed_after 1_000 and large = replayed_after 10_000 in
  Alcotest.(check int) "replay count independent of history length" small large;
  Alcotest.(check bool) "suffix bounded by checkpoint interval" true (small <= 100)

(* ---- qcheck: compaction, salvage, and recovery idempotence ---- *)

let op_gen =
  QCheck2.Gen.(
    oneof
      [
        map2 (fun k v -> `Set (string_of_int k, string_of_int v)) (int_range 0 20) small_nat;
        map (fun k -> `Remove (string_of_int k)) (int_range 0 20);
        return `Checkpoint;
        return `Crash_recover;
      ])

let apply_ops store ops =
  List.iter
    (function
      | `Set (k, v) -> Store.set store ~key:k v
      | `Remove k -> Store.remove store ~key:k
      | `Checkpoint -> Store.checkpoint store
      | `Crash_recover ->
          Store.crash store;
          ignore (Store.recover store))
    ops

(* replay(checkpoint + suffix) ≡ replay(full log): a store compacting every
   few mutations and one that never checkpoints agree on every table, after
   arbitrary op sequences with crashes (fault-free disks). *)
let prop_compaction_equivalence =
  QCheck2.Test.make ~name:"compacted recovery equals full-log replay" ~count:200
    QCheck2.Gen.(list_size (int_range 0 80) op_gen)
    (fun ops ->
      let compacting = Store.create ~checkpoint_every:7 () in
      let plain = Store.create () in
      apply_ops compacting ops;
      apply_ops plain ops;
      Store.crash compacting;
      ignore (Store.recover compacting);
      Store.crash plain;
      ignore (Store.recover plain);
      dump compacting = dump plain)

(* Salvage floor: whatever was flushed at crash time survives a flaky-disk
   crash byte-for-byte (rot is mirror-salvageable; drop and tear only reach
   the un-flushed tail). *)
let prop_salvage_keeps_flushed =
  QCheck2.Test.make ~name:"flushed records survive flaky-disk crashes" ~count:200
    QCheck2.Gen.(pair small_int (list_size (int_range 0 60) op_gen))
    (fun (seed, ops) ->
      let s = Store.create ~disk:(Disk.flaky, Rng.create ~seed) ~checkpoint_every:11 () in
      apply_ops s ops;
      Store.flush s;
      let before = dump s in
      Store.crash s;
      ignore (Store.recover s);
      dump s = before)

(* Recovery is idempotent: once a damaged store has recovered, further
   crash/recover cycles (no new mutations) keep the same table and report
   no un-flushed losses. *)
let prop_recovery_idempotent =
  QCheck2.Test.make ~name:"recovery is idempotent" ~count:200
    QCheck2.Gen.(pair small_int (list_size (int_range 0 60) op_gen))
    (fun (seed, ops) ->
      let s = Store.create ~disk:(Disk.flaky, Rng.create ~seed) ~checkpoint_every:11 () in
      apply_ops s ops;
      Store.crash s;
      ignore (Store.recover s);
      let first = dump s in
      let stable = ref true in
      for _ = 1 to 3 do
        Store.crash s;
        let r = Store.recover_report s in
        stable :=
          !stable && dump s = first && r.Store.dropped_unflushed = 0
          && Result.is_ok (Store.durability_check s)
      done;
      !stable)

(* ---- the writers against the code they replaced ----

   Records and checkpoint frames are written into one buffer of their
   exact size; these are the Printf and Buffer versions that wrote them
   before, kept as the reference for every byte. *)

let reference_set ~key value = Printf.sprintf "S%d:%s%s" (String.length key) key value
let reference_remove ~key = Printf.sprintf "R%d:%s" (String.length key) key

let reference_checkpoint ~upto pairs =
  let buf = Buffer.create 256 in
  Buffer.add_char buf 'C';
  Buffer.add_string buf (string_of_int upto);
  Buffer.add_char buf ';';
  Buffer.add_string buf (string_of_int (List.length pairs));
  Buffer.add_char buf ';';
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf (string_of_int (String.length k));
      Buffer.add_char buf ':';
      Buffer.add_string buf k;
      Buffer.add_string buf (string_of_int (String.length v));
      Buffer.add_char buf ':';
      Buffer.add_string buf v)
    pairs;
  let body = Buffer.contents buf in
  Printf.sprintf "%s%08x" body (Dcp_net.Crc32.digest_string body)

let gen_bytes =
  QCheck2.Gen.(
    string_size ~gen:char (frequency [ (8, int_range 0 12); (1, int_range 9 120); (1, pure 1000) ]))

let prop_record_writers =
  QCheck2.Test.make ~name:"log records equal the Printf reference's bytes" ~count:500
    QCheck2.Gen.(pair gen_bytes gen_bytes)
    (fun (key, value) ->
      String.equal (Store.encode_set ~key value) (reference_set ~key value)
      && String.equal (Store.encode_remove ~key) (reference_remove ~key))

let prop_checkpoint_writer =
  QCheck2.Test.make ~name:"checkpoint frames equal the Buffer reference's bytes" ~count:300
    QCheck2.Gen.(
      pair
        (oneof [ int_range 0 20; int_range 0 max_int; int_range min_int (-1) ])
        (list_size (int_range 0 15) (pair gen_bytes gen_bytes)))
    (fun (upto, pairs) ->
      String.equal (Checkpoint.make ~upto pairs) (reference_checkpoint ~upto pairs))

let tests =
  [
    Alcotest.test_case "injector: none draws nothing" `Quick test_disk_none_draws_nothing;
    Alcotest.test_case "injector: flaky draws bounded" `Quick test_disk_flaky_draws_bounded;
    Alcotest.test_case "injector: deterministic in the seed" `Quick test_disk_deterministic;
    Alcotest.test_case "checkpoint frame round-trip" `Quick test_checkpoint_roundtrip;
    Alcotest.test_case "checkpoint: every byte flip detected" `Quick
      test_checkpoint_any_flip_detected;
    Alcotest.test_case "checkpoint: every truncation detected" `Quick
      test_checkpoint_truncated_detected;
    Alcotest.test_case "crash drop loses only the un-flushed tail" `Quick
      test_drop_loses_unflushed_only;
    Alcotest.test_case "crash tear loses only the in-flight record" `Quick
      test_tear_loses_last_unflushed_only;
    Alcotest.test_case "bit rot salvaged from the mirror" `Quick test_rot_salvaged_from_mirror;
    Alcotest.test_case "sector rot quarantined, store consistent" `Quick
      test_sector_rot_quarantined;
    Alcotest.test_case "append stalls reach the handler" `Quick test_stall_handler_invoked;
    Alcotest.test_case "damaged checkpoint falls back a generation (regression)" `Quick
      test_checkpoint_damage_falls_back;
    Alcotest.test_case "damaged first checkpoint loses nothing" `Quick
      test_first_checkpoint_damage_harmless;
    Alcotest.test_case "recovery is O(suffix), not O(log)" `Quick test_recovery_is_o_suffix;
    QCheck_alcotest.to_alcotest prop_compaction_equivalence;
    QCheck_alcotest.to_alcotest prop_salvage_keeps_flushed;
    QCheck_alcotest.to_alcotest prop_recovery_idempotent;
    QCheck_alcotest.to_alcotest prop_record_writers;
    QCheck_alcotest.to_alcotest prop_checkpoint_writer;
  ]
