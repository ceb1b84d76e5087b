(** Access control lists (§2.3).

    "For such requests, it checks that the requester has the right to
    request the access (perhaps using some sort of access control list
    mechanism).  For example, only a manager can request a passenger list,
    or a reservation request from some other airline might not be permitted
    to reserve the last seat on a flight."

    A guardian owns its ACL as ordinary private data and consults it when a
    request arrives.  Principals and permissions are strings; groups let a
    grant cover many principals; [allow_all] makes a permission public.
    Note that the runtime's *other* protection mechanism is structural:
    unpublished port names and sealed tokens are capabilities — the ACL is
    for policies expressed over who is asking.

    Paper API (§2.3): no run in [lib/], [bin/], [bench/] or [examples/]
    builds an ACL yet; {!create}, the grant, revoke and group families,
    {!check}, {!permissions_of} and {!principals_with} are reached only by
    tests, and stay as the access-control mechanism §2.3 has a guardian
    consult. *)

type principal = string
type permission = string

type t

val create : unit -> t

(** {1 Grants} *)

val grant : t -> principal:principal -> permission:permission -> unit
val revoke : t -> principal:principal -> permission:permission -> unit
(** Revoking an absent grant is a no-op; revoking does not affect grants
    the principal holds via groups or [allow_all]. *)

val allow_all : t -> permission:permission -> unit
(** Make [permission] public. *)

val disallow_all : t -> permission:permission -> unit
(** Remove a previous [allow_all]; individual and group grants remain. *)

(** {1 Groups} *)

val add_to_group : t -> principal:principal -> group:string -> unit
val remove_from_group : t -> principal:principal -> group:string -> unit
val grant_group : t -> group:string -> permission:permission -> unit
val revoke_group : t -> group:string -> permission:permission -> unit

(** {1 Checking} *)

val check : t -> principal:principal -> permission:permission -> bool
(** True iff the principal holds the permission directly, through one of
    its groups, or the permission is public. *)

val permissions_of : t -> principal:principal -> permission list
(** Sorted, deduplicated; includes group-derived and public permissions. *)

val principals_with : t -> permission:permission -> principal list
(** Principals holding the permission directly or via groups (not the
    public pseudo-grant), sorted. *)
