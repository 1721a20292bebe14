(* Open addressing with linear probing over one int array. Every
   occurrence of a key takes a slot of its own, so a key added twice is
   removed twice before [mem] turns false; [empty] marks a free slot,
   which is why keys must not be negative. Removal shifts the rest of
   the probe run back over the hole instead of leaving a tombstone, so
   probe runs never lengthen with churn. The table doubles when it would
   pass half full; nothing else allocates.

   Every comparison below is on ints the signatures name: an unannotated
   one can compile to the polymorphic compare, which costs a C call per
   probe. *)

type t = {
  mutable slots : int array; (* length a power of two *)
  mutable bits : int; (* log2 (Array.length slots) *)
  mutable size : int;
}

let empty = -1

let create ?(capacity = 8) () =
  let bits = ref 3 in
  while 1 lsl !bits < 2 * capacity do
    incr bits
  done;
  { slots = Array.make (1 lsl !bits) empty; bits = !bits; size = 0 }

(* Fibonacci hashing: the high [bits] bits of the key times an odd
   constant near 2^63 / phi (0x4F1BBCDCBFA53E0B, written as the negative
   63-bit int with that bit pattern). Consecutive uids land far apart. *)
let golden = -0x30E44323405AC1F5

let home bits (k : int) = (k * golden) lsr (Sys.int_size - bits)

(* Slot of the first occurrence of [k] in the run from [i], or -1. *)
let rec find (slots : int array) mask (k : int) i =
  let s = slots.(i) in
  if s = k then i
  else if s = empty then -1
  else find slots mask k ((i + 1) land mask)

let mem t k =
  k >= 0 && find t.slots (Array.length t.slots - 1) k (home t.bits k) >= 0

let rec free (slots : int array) mask i =
  if slots.(i) = empty then i else free slots mask ((i + 1) land mask)

let place t (k : int) =
  let mask = Array.length t.slots - 1 in
  t.slots.(free t.slots mask (home t.bits k)) <- k

let grow t =
  let old = t.slots in
  t.bits <- t.bits + 1;
  t.slots <- Array.make (1 lsl t.bits) empty;
  for i = 0 to Array.length old - 1 do
    let k = old.(i) in
    if k <> empty then place t k
  done

let add t k =
  if k < 0 then invalid_arg "Int_multiset.add: negative key";
  if 2 * (t.size + 1) > Array.length t.slots then grow t;
  place t k;
  t.size <- t.size + 1

(* [hole] was just emptied. A key later in the run moves into it when the
   hole lies cyclically between that key's home slot and its slot. *)
let rec close_hole t (slots : int array) mask hole j =
  let k = slots.(j) in
  if k = empty then slots.(hole) <- empty
  else
    let next = (j + 1) land mask in
    if (j - home t.bits k) land mask >= (j - hole) land mask then begin
      slots.(hole) <- k;
      close_hole t slots mask j next
    end
    else close_hole t slots mask hole next

let remove t k =
  if k >= 0 then begin
    let slots = t.slots in
    let mask = Array.length slots - 1 in
    let i = find slots mask k (home t.bits k) in
    if i >= 0 then begin
      t.size <- t.size - 1;
      close_hole t slots mask i ((i + 1) land mask)
    end
  end
