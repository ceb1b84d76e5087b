(* The [wire] and [net] layers, timed by replaying a traced run's own
   envelopes after the run: encode them with a reused encoder (the send
   path's), decode them and rebuild each message (the delivery path's),
   and fragment, CRC-check and reassemble them at the runtime's MTU (the
   remote path's).  Every message is replayed, local ones too, so the
   per-message costs are comparable across workloads. *)

open Dcp_wire
module Runtime = Dcp_core.Runtime
module Message = Dcp_core.Message
module Packet = Dcp_net.Packet

(* Enough passes over the sample that each phase runs for a good fraction
   of a second. *)
let messages_per_phase = 200_000

let time_per_message rounds n f =
  let t0 = Span.now_ns () in
  for r = 0 to rounds - 1 do
    for i = 0 to n - 1 do
      f r i
    done
  done;
  float_of_int (Span.now_ns () - t0) /. float_of_int (rounds * n)

let metrics envelopes =
  let config = Runtime.default_config.Runtime.codec and mtu = Runtime.default_config.Runtime.mtu in
  let envs =
    Array.of_list (List.rev_map (fun (target, msg) -> Message.envelope ~target msg) envelopes)
  in
  let n = Array.length envs in
  let rounds = Int.max 1 (messages_per_phase / n) in
  let encoder = Codec.encoder ~config () in
  let bodies = Array.map (Codec.encode_exn ~config) envs in
  let encode_ns =
    time_per_message rounds n (fun _ i ->
        ignore (Sys.opaque_identity (Codec.encode_with encoder envs.(i))))
  in
  let decode_ns =
    time_per_message rounds n (fun _ i ->
        match Codec.decode ~config bodies.(i) with
        | Ok v -> ignore (Sys.opaque_identity (Message.of_envelope v))
        | Error _ -> failwith "replay: an envelope does not decode")
  in
  let fragments = ref 0 in
  let reassembly = Packet.Reassembly.create () in
  let reassemble_ns =
    time_per_message rounds n (fun r i ->
        let frags = Packet.fragment ~src:0 ~dst:1 ~msg_id:((r * n) + i) ~mtu bodies.(i) in
        if r = 0 then fragments := !fragments + List.length frags;
        List.iter
          (fun f ->
            if Packet.intact f then ignore (Packet.Reassembly.offer reassembly ~now:0 f)
            else failwith "replay: a fragment fails its CRC")
          frags)
  in
  let per_message x = float_of_int x /. float_of_int n in
  let body_bytes = Array.fold_left (fun acc b -> acc + String.length b) 0 bodies in
  [
    ("wire.encode_ns_per_msg", encode_ns);
    ("wire.decode_ns_per_msg", decode_ns);
    ("wire.body_bytes_per_msg", per_message body_bytes);
    ("net.fragment_reassemble_ns_per_msg", reassemble_ns);
    ("net.replay_fragments_per_msg", per_message !fragments);
  ]
