(* Sparse LU basis factorization with product-form eta updates.

   The basis B is a selection of columns from a compressed sparse column
   matrix. [factor] computes P_r B P_c = L U by left-looking elimination
   with a static Markowitz-style ordering: columns are processed
   cheapest-first (fewest nonzeros), and within a column the pivot row is
   the stability-acceptable candidate with the fewest static nonzeros in
   the basis (ties to the smallest row index). Each simplex basis change
   is appended to an eta file (product-form inverse): B' = B·E where E is
   the identity with column [pos] replaced by w = B^-1 a_q, so
   B'^-1 = E^-1 B^-1.

   Coordinate spaces: right-hand sides and dual vectors live in original
   ROW space; basic-variable coefficient vectors live in POSITION space
   (index p into the caller's basis array). Internally the factors use a
   stage space (elimination order k) with maps [prow] (stage -> row) and
   [cpos] (stage -> basis position); callers never see stages.

   Every scalar multiply/divide performed is tallied into the [ops] ref
   supplied at factorization time — this is the "touched cells" measure
   the solution's [sol_cells] and the bench work ratios report.

   The kernels pay for the nonzeros they reach, not for m: [factor]
   eliminates a column only against the finished stages its nonzeros
   reach, and [ftran] visits only the stages its right-hand side
   reaches. Both pop those stages from a binary heap in the stage order
   a dense sweep would use, so every scalar operation — and its order,
   which floats can see — is the dense sweep's. *)

module Make (S : Scalar.S) = struct
  (* a sparse matrix column: parallel (row index, value) arrays *)
  type col = { rows : int array; vals : S.t array }

  let col_of_list entries =
    let entries = List.filter (fun (_, v) -> not (S.is_zero v)) entries in
    let n = List.length entries in
    let rows = Array.make n 0 and vals = Array.make n S.zero in
    List.iteri
      (fun k (r, v) ->
        rows.(k) <- r;
        vals.(k) <- v)
      entries;
    { rows; vals }

  let col_of_array a = col_of_list (List.init (Array.length a) (fun i -> (i, a.(i))))
  let col_nnz c = Array.length c.rows

  (* Binary min-heap of ints in [h.(0 .. !n - 1)]; each caller pushes a
     key at most once per sweep, so [Array.length h] bounds the size. *)
  let heap_push h n x =
    let i = ref !n in
    incr n;
    while !i > 0 && h.((!i - 1) / 2) > x do
      h.(!i) <- h.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    h.(!i) <- x

  let heap_pop h n =
    let top = h.(0) in
    decr n;
    let x = h.(!n) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= !n then sifting := false
      else begin
        let c = if l + 1 < !n && h.(l + 1) < h.(l) then l + 1 else l in
        if h.(c) < x then begin
          h.(!i) <- h.(c);
          i := c
        end
        else sifting := false
      end
    done;
    h.(!i) <- x;
    top

  type eta = {
    e_pos : int;                  (* basis position replaced *)
    e_piv : S.t;                  (* w at that position *)
    e_rows : int array;           (* other positions with nonzero w *)
    e_vals : S.t array;
  }

  type fact = {
    m : int;
    ops : int ref;
    prow : int array;             (* stage -> original row *)
    stage_of_row : int array;
    cpos : int array;             (* stage -> basis position *)
    lcols : (int array * S.t array) array;
        (* unit-lower column per stage, entries indexed by original row *)
    ucols : (int array * S.t array) array;
        (* strict-upper column per stage, entries indexed by stage *)
    udiag : S.t array;
    lu_nnz : int;
    mutable etas : eta array;     (* insertion order; grown by doubling *)
    mutable eta_count : int;
    mutable eta_nnz : int;
  }

  exception Singular

  (* Kernel scratch, sized to the largest factorization seen and reused
     by every [factor], [ftran] and [btran] call on the same domain —
     these are the hot path (every pivot, periodic refactorization,
     per-node warm restores). No kernel calls another while it holds
     the scratch, and each leaves [vec] all zero and [mark] all false.
     Domain-local, not module-global: the functor is instantiated once
     per scalar, so a shared workspace would be raced by concurrent
     solves on worker domains (serve, the fuzz pool) and corrupt
     factorizations. *)
  type workspace = {
    mutable vec : S.t array;      (* row space: factor's column, ftran's w *)
    mutable mark : bool array;    (* row reached *)
    mutable reach : int array;    (* reached rows, in order reached *)
    mutable heap : int array;     (* stage keys still to visit *)
    mutable bc : S.t array;       (* btran: position space *)
    mutable bw : S.t array;       (* btran: stage space *)
  }

  let workspace =
    Domain.DLS.new_key (fun () ->
        { vec = [||]; mark = [||]; reach = [||]; heap = [||]; bc = [||]; bw = [||] })

  let scratch m =
    let ws = Domain.DLS.get workspace in
    if Array.length ws.vec < m then begin
      ws.vec <- Array.make m S.zero;
      ws.mark <- Array.make m false;
      ws.reach <- Array.make m 0;
      ws.heap <- Array.make m 0;
      ws.bc <- Array.make m S.zero;
      ws.bw <- Array.make m S.zero
    end;
    ws

  (* [factor ~ops ~nrows ~cols ~basis] factorizes the matrix whose
     position-p column is [cols.(basis.(p))]. Raises Singular. *)
  let factor ~ops ~nrows ~(cols : col array) ~(basis : int array) =
    let m = nrows in
    if Array.length basis <> m then invalid_arg "Slu.factor: basis size";
    (* static column order: fewest nonzeros first, stable on position *)
    let order = Array.init m (fun p -> p) in
    let nnz p = col_nnz cols.(basis.(p)) in
    Array.sort
      (fun a b ->
        let c = compare (nnz a) (nnz b) in
        if c <> 0 then c else compare a b)
      order;
    (* static row counts within the basis, for Markowitz tie-breaking *)
    let rownnz = Array.make m 0 in
    Array.iter
      (fun cid ->
        let c = cols.(cid) in
        Array.iter (fun r -> rownnz.(r) <- rownnz.(r) + 1) c.rows)
      (Array.map (fun p -> basis.(p)) order);
    let pivoted = Array.make m false in
    let stage_of_row = Array.make m (-1) in
    let prow = Array.make m (-1) in
    let cpos = Array.make m (-1) in
    let lcols = Array.make m ([||], [||]) in
    let ucols = Array.make m ([||], [||]) in
    let udiag = Array.make m S.zero in
    let lu_nnz = ref 0 in
    let ws = scratch m in
    let work = ws.vec and intab = ws.mark and touched = ws.reach in
    (* finished stages the current column reaches, not yet eliminated *)
    let heap = ws.heap in
    let ntouch = ref 0 and nheap = ref 0 in
    let touch r =
      intab.(r) <- true;
      touched.(!ntouch) <- r;
      incr ntouch;
      if pivoted.(r) then heap_push heap nheap stage_of_row.(r)
    in
    let clear () =
      for t = 0 to !ntouch - 1 do
        let r = touched.(t) in
        work.(r) <- S.zero;
        intab.(r) <- false
      done;
      ntouch := 0
    in
    try
      for k = 0 to m - 1 do
        let p = order.(k) in
        let c = cols.(basis.(p)) in
        (* scatter the column into the dense workspace *)
        for idx = 0 to Array.length c.rows - 1 do
          let r = c.rows.(idx) in
          work.(r) <- c.vals.(idx);
          if not intab.(r) then touch r
        done;
        (* left-looking: eliminate against the finished stages the
           column reaches, in stage order. L column j holds only rows
           unpivoted at stage j, so the fill it pushes comes later
           than j and the heap never hands back an earlier stage. *)
        while !nheap > 0 do
          let j = heap_pop heap nheap in
          let f = work.(prow.(j)) in
          if not (S.is_zero f) then begin
            let lr, lv = lcols.(j) in
            for idx = 0 to Array.length lr - 1 do
              let r = lr.(idx) in
              if not intab.(r) then touch r;
              incr ops;
              work.(r) <- S.submul work.(r) f lv.(idx)
            done
          end
        done;
        (* pivot among not-yet-pivoted rows: stability-acceptable,
           fewest static row nonzeros, smallest index *)
        let colmax = ref S.zero in
        for t = 0 to !ntouch - 1 do
          let r = touched.(t) in
          if not pivoted.(r) then begin
            let a = S.abs work.(r) in
            if S.compare a !colmax > 0 then colmax := a
          end
        done;
        let best = ref (-1) in
        for t = 0 to !ntouch - 1 do
          let r = touched.(t) in
          if
            (not pivoted.(r))
            && (not (S.is_zero work.(r)))
            && S.stable_pivot work.(r) ~colmax:!colmax
          then
            if !best < 0 then best := r
            else
              let c = compare rownnz.(r) rownnz.(!best) in
              if c < 0 || (c = 0 && r < !best) then best := r
        done;
        if !best < 0 then raise Singular;
        let pr = !best in
        pivoted.(pr) <- true;
        stage_of_row.(pr) <- k;
        prow.(k) <- pr;
        cpos.(k) <- p;
        let piv = work.(pr) in
        udiag.(k) <- piv;
        (* gather: pivoted rows -> U column, the rest -> L column *)
        let un = ref 0 and ln = ref 0 in
        for t = 0 to !ntouch - 1 do
          let r = touched.(t) in
          if r <> pr && not (S.is_zero work.(r)) then
            if pivoted.(r) then incr un else incr ln
        done;
        let ur = Array.make !un 0 and uv = Array.make !un S.zero in
        let lr = Array.make !ln 0 and lv = Array.make !ln S.zero in
        let ui = ref 0 and li = ref 0 in
        for t = 0 to !ntouch - 1 do
          let r = touched.(t) in
          if r <> pr && not (S.is_zero work.(r)) then
            if pivoted.(r) then begin
              ur.(!ui) <- stage_of_row.(r);
              uv.(!ui) <- work.(r);
              incr ui
            end
            else begin
              incr ops;
              lr.(!li) <- r;
              lv.(!li) <- S.div work.(r) piv;
              incr li
            end
        done;
        lcols.(k) <- (lr, lv);
        ucols.(k) <- (ur, uv);
        lu_nnz := !lu_nnz + !un + !ln + 1;
        clear ()
      done;
      {
        m;
        ops;
        prow;
        stage_of_row;
        cpos;
        lcols;
        ucols;
        udiag;
        lu_nnz = !lu_nnz;
        etas = [||];
        eta_count = 0;
        eta_nnz = 0;
      }
    with Singular ->
      clear ();
      raise Singular

  (* eta transforms on position-space vectors, in place *)

  let apply_eta_fwd ops (e : eta) (x : S.t array) =
    (* x := E^-1 x:  x_p' = x_p / piv;  x_i' = x_i - w_i x_p' *)
    let xp = x.(e.e_pos) in
    if S.is_zero xp then ()
    else begin
      incr ops;
      let xp' = S.div xp e.e_piv in
      x.(e.e_pos) <- xp';
      for idx = 0 to Array.length e.e_rows - 1 do
        incr ops;
        x.(e.e_rows.(idx)) <- S.submul x.(e.e_rows.(idx)) e.e_vals.(idx) xp'
      done
    end

  let apply_eta_transposed ops (e : eta) (y : S.t array) =
    (* y := E^-T y:  y_p' = (y_p - sum_{i<>p} w_i y_i) / piv *)
    let acc = ref y.(e.e_pos) in
    for idx = 0 to Array.length e.e_rows - 1 do
      let yi = y.(e.e_rows.(idx)) in
      if not (S.is_zero yi) then begin
        incr ops;
        acc := S.submul !acc e.e_vals.(idx) yi
      end
    done;
    (* an eta disjoint from the vector's support is a no-op: skip the
       division (0 / piv = 0) so its cost stays proportional to overlap *)
    if not (S.is_zero !acc) then begin
      incr ops;
      y.(e.e_pos) <- S.div !acc e.e_piv
    end
    else y.(e.e_pos) <- S.zero

  (* [ftran f b]: solve B x = b. [b] is a sparse row-space column; the
     result is a fresh position-space vector. *)
  let ftran (f : fact) (b : col) =
    let ws = scratch f.m in
    let ops = f.ops and w = ws.vec and mark = ws.mark and reach = ws.reach and heap = ws.heap in
    let nreach = ref 0 and nheap = ref 0 in
    (* [key] orders the heap: the stage for L, its negation for U *)
    let reach_row key r =
      mark.(r) <- true;
      reach.(!nreach) <- r;
      incr nreach;
      heap_push heap nheap (key f.stage_of_row.(r))
    in
    let forward k = k and backward k = -k in
    for idx = 0 to Array.length b.rows - 1 do
      let r = b.rows.(idx) in
      w.(r) <- b.vals.(idx);
      if not mark.(r) then reach_row forward r
    done;
    (* L y = b over the reached stages, increasing; y_k lives at
       w.(prow k). L column k holds rows pivoted after k only. *)
    while !nheap > 0 do
      let k = heap_pop heap nheap in
      let y = w.(f.prow.(k)) in
      if not (S.is_zero y) then begin
        let lr, lv = f.lcols.(k) in
        for idx = 0 to Array.length lr - 1 do
          let r = lr.(idx) in
          if not mark.(r) then reach_row forward r;
          incr ops;
          w.(r) <- S.submul w.(r) y lv.(idx)
        done
      end
    done;
    (* U z = y, column-sweep back substitution over the reached stages,
       decreasing (U column k holds earlier stages only); z goes
       straight to its basis position *)
    for t = 0 to !nreach - 1 do
      heap_push heap nheap (backward f.stage_of_row.(reach.(t)))
    done;
    let x = Array.make f.m S.zero in
    while !nheap > 0 do
      let k = backward (heap_pop heap nheap) in
      let y = w.(f.prow.(k)) in
      if not (S.is_zero y) then begin
        incr ops;
        let zk = S.div y f.udiag.(k) in
        x.(f.cpos.(k)) <- zk;
        let ur, uv = f.ucols.(k) in
        for idx = 0 to Array.length ur - 1 do
          incr ops;
          let r = f.prow.(ur.(idx)) in
          if not mark.(r) then reach_row backward r;
          w.(r) <- S.submul w.(r) uv.(idx) zk
        done
      end
    done;
    for t = 0 to !nreach - 1 do
      let r = reach.(t) in
      w.(r) <- S.zero;
      mark.(r) <- false
    done;
    (* the eta file, oldest-first *)
    for i = 0 to f.eta_count - 1 do
      apply_eta_fwd ops f.etas.(i) x
    done;
    x

  (* [btran f c]: solve B^T y = c. [c] is position-space (not consumed);
     the result is a fresh row-space vector. *)
  let btran (f : fact) (c0 : S.t array) =
    let ws = scratch f.m in
    let ops = f.ops and c = ws.bc in
    Array.blit c0 0 c 0 f.m;
    (* eta file newest-first: B^-T = B0^-T E1^-T ... Et^-T *)
    for i = f.eta_count - 1 downto 0 do
      apply_eta_transposed ops f.etas.(i) c
    done;
    (* U^T w = c' (c' = c in stage order), forward:
       w_k = (c'_k - sum_{(j,u) in ucol k} u w_j)/d_k *)
    let w = ws.bw in
    for k = 0 to f.m - 1 do
      let acc = ref c.(f.cpos.(k)) in
      let ur, uv = f.ucols.(k) in
      for idx = 0 to Array.length ur - 1 do
        let wj = w.(ur.(idx)) in
        if not (S.is_zero wj) then begin
          incr ops;
          acc := S.submul !acc uv.(idx) wj
        end
      done;
      if not (S.is_zero !acc) then begin
        incr ops;
        w.(k) <- S.div !acc f.udiag.(k)
      end
      else w.(k) <- S.zero
    done;
    (* L^T y = w, backward; y indexed by original row *)
    let y = Array.make f.m S.zero in
    for k = f.m - 1 downto 0 do
      let acc = ref w.(k) in
      let lr, lv = f.lcols.(k) in
      for idx = 0 to Array.length lr - 1 do
        let yi = y.(lr.(idx)) in
        if not (S.is_zero yi) then begin
          incr ops;
          acc := S.submul !acc lv.(idx) yi
        end
      done;
      y.(f.prow.(k)) <- !acc
    done;
    y

  (* [update f ~pos ~w]: append the eta for replacing the basic column at
     [pos] by the column whose ftran image is [w] (position-space,
     dense). Returns false — caller must refactorize — when w.(pos) is
     not an acceptable eta pivot. *)
  let update (f : fact) ~pos ~(w : S.t array) =
    let piv = w.(pos) in
    if not (S.eta_pivot_ok piv) then false
    else begin
      let n = ref 0 in
      for i = 0 to f.m - 1 do
        if i <> pos && not (S.is_zero w.(i)) then incr n
      done;
      let er = Array.make !n 0 and ev = Array.make !n S.zero in
      let j = ref 0 in
      for i = 0 to f.m - 1 do
        if i <> pos && not (S.is_zero w.(i)) then begin
          er.(!j) <- i;
          ev.(!j) <- w.(i);
          incr j
        end
      done;
      let e = { e_pos = pos; e_piv = piv; e_rows = er; e_vals = ev } in
      if f.eta_count >= Array.length f.etas then begin
        let cap = max 8 (2 * Array.length f.etas) in
        let etas = Array.make cap e in
        Array.blit f.etas 0 etas 0 f.eta_count;
        f.etas <- etas
      end;
      f.etas.(f.eta_count) <- e;
      f.eta_count <- f.eta_count + 1;
      f.eta_nnz <- f.eta_nnz + !n + 1;
      true
    end

  let num_etas f = f.eta_count
  let lu_nnz f = f.lu_nnz

  (* refactorize when the eta file is long or has accumulated more fill
     than the factors themselves *)
  let should_refactor f ~eta_cap =
    f.eta_count >= eta_cap || f.eta_nnz > max (4 * f.m) (2 * f.lu_nnz)
end
