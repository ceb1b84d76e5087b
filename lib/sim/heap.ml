(* 4-ary min-heap.  Children of [i] live at [4i+1 .. 4i+4], parent at
   [(i-1)/4].  Versus the binary layout this halves the tree depth — a
   push or pop touches ~log4 n levels instead of log2 n — and the four
   children of a node sit adjacent in the array, so the extra
   comparisons per level are nearly free.  Sifts move a *hole* instead
   of swapping: the element being placed is held in a register while
   parents (or minimum children) are shifted one slot, one write per
   level instead of three.

   The pop order depends only on [cmp], never on the internal layout, so
   switching arity cannot change the execution order of an engine whose
   comparison is a total order (time, then sequence number). *)

type 'a t = {
  cmp : 'a -> 'a -> int;
  mutable data : 'a array;
  mutable size : int;
}

let create ~cmp = { cmp; data = [||]; size = 0 }
let length h = h.size

let grow h x =
  let capacity = Array.length h.data in
  if h.size = capacity then begin
    let next = if capacity = 0 then 16 else capacity * 2 in
    let data = Array.make next x in
    Array.blit h.data 0 data 0 h.size;
    h.data <- data
  end

(* Walk the hole at [i] towards the root until [x] fits, then write [x]
   exactly once. *)
let rec sift_up h i x =
  if i = 0 then h.data.(0) <- x
  else begin
    let parent = (i - 1) / 4 in
    if h.cmp x h.data.(parent) < 0 then begin
      h.data.(i) <- h.data.(parent);
      sift_up h parent x
    end
    else h.data.(i) <- x
  end

(* Index of the smallest of the (at most four) children of [i];
   [first = 4i+1] is known to be < size. *)
let min_child h first =
  let last = Int.min (first + 3) (h.size - 1) in
  let best = ref first in
  for j = first + 1 to last do
    if h.cmp h.data.(j) h.data.(!best) < 0 then best := j
  done;
  !best

(* Walk the hole at [i] towards the leaves until [x] fits. *)
let rec sift_down h i x =
  let first = (4 * i) + 1 in
  if first >= h.size then h.data.(i) <- x
  else begin
    let c = min_child h first in
    if h.cmp h.data.(c) x < 0 then begin
      h.data.(i) <- h.data.(c);
      sift_down h c x
    end
    else h.data.(i) <- x
  end

let push h x =
  grow h x;
  let i = h.size in
  h.size <- i + 1;
  sift_up h i x

(* Neither returns an option: the engine calls both once per event, and
   checks [length] first. *)
let peek h =
  if h.size = 0 then invalid_arg "Heap.peek: empty heap";
  h.data.(0)

let pop h =
  if h.size = 0 then invalid_arg "Heap.pop: empty heap";
  let top = h.data.(0) in
  h.size <- h.size - 1;
  if h.size > 0 then sift_down h 0 h.data.(h.size);
  top

(* Compact the kept elements to the front, then restore heap order
   bottom-up (Floyd): O(n).  The slots past the survivors are overwritten,
   so the array keeps no reference to a dropped or popped element. *)
let filter h keep =
  let n = h.size in
  let kept = ref 0 in
  for i = 0 to n - 1 do
    let x = h.data.(i) in
    if keep x then begin
      h.data.(!kept) <- x;
      incr kept
    end
  done;
  h.size <- !kept;
  if !kept = 0 then h.data <- [||]
  else begin
    Array.fill h.data !kept (Array.length h.data - !kept) h.data.(0);
    for i = (!kept - 2) / 4 downto 0 do
      sift_down h i h.data.(i)
    done
  end
