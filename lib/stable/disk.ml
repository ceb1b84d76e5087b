module Rng = Dcp_rng.Rng

type spec = {
  stall_p : float;
  stall_ms : int;
  tear_p : float;
  drop_p : float;
  rot_p : float;
  sector_p : float;
}

let none = { stall_p = 0.; stall_ms = 0; tear_p = 0.; drop_p = 0.; rot_p = 0.; sector_p = 0. }
let flaky = { stall_p = 0.05; stall_ms = 5; tear_p = 0.5; drop_p = 0.25; rot_p = 0.3; sector_p = 0. }
let hostile = { flaky with sector_p = 1. }

let is_none s =
  s.stall_p = 0. && s.tear_p = 0. && s.drop_p = 0. && s.rot_p = 0.

let pp ppf s =
  Format.fprintf ppf "stall=%.2f/%dms tear=%.2f drop=%.2f rot=%.2f sector=%.2f" s.stall_p
    s.stall_ms s.tear_p s.drop_p s.rot_p s.sector_p

type t = { spec : spec; rng : Rng.t }

let create spec rng = { spec; rng }

let draw_stall t =
  if t.spec.stall_p > 0. && Rng.bernoulli t.rng t.spec.stall_p then
    Some (Rng.int_in t.rng 1 (Int.max 1 t.spec.stall_ms))
  else None

let draw_drop t = t.spec.drop_p > 0. && Rng.bernoulli t.rng t.spec.drop_p

let draw_tear t = t.spec.tear_p > 0. && Rng.bernoulli t.rng t.spec.tear_p

let draw_rot t ~targets =
  if targets > 0 && t.spec.rot_p > 0. && Rng.bernoulli t.rng t.spec.rot_p then begin
    let victim = Rng.int t.rng targets in
    let sector = t.spec.sector_p > 0. && Rng.bernoulli t.rng t.spec.sector_p in
    Some (victim, sector)
  end
  else None

let draw_byte t ~len = Rng.int t.rng len
