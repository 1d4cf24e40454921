package repro.provrc

/** In-situ query processing over compressed lineage tables (paper Section V).
  *
  * A query is a set of multidimensional rectangles over the table's key-side
  * axes (the axes stored with absolute intervals — output axes for a
  * backward table, input axes for a forward table). One θ-join hop:
  *
  *  1. ''Range join'': intersect each query rectangle with each row's
  *     key-side intervals; rows with an empty intersection on any axis drop
  *     out.
  *  2. ''De-relativize'': resolve the value-side encodings against the
  *     intersection — `AbsEnc` passes through, `RelEnc(j, d)` becomes the
  *     Minkowski sum `intersection_j + d` (the paper's `rel_back`; exact for
  *     the projection because the union of unit-shifted intervals over a
  *     contiguous key range is itself contiguous).
  *
  * The result is a set of rectangles over the value-side axes, which — after
  * the projection + merge optimization of §V-B.3 — becomes the query for the
  * next hop in the path.
  */
object ThetaJoin {

  type Rect = Vector[Interval]

  /** One θ-join hop. `merge = false` is the paper's DSLog-NoMerge ablation. */
  def join(rows: Iterable[CRow], query: Seq[Rect], merge: Boolean = true): Vector[Rect] = {
    val out = joinRaw(rows, query)
    if (merge) mergeRects(out) else out
  }

  /** Step 1, the range join of one row with one query rectangle: the
    * intersection of the row's key-side intervals with the rectangle, axis
    * by axis, or `None` when some axis is disjoint.
    */
  def rangeJoin(key: Vector[Interval], q: Rect): Option[Array[Interval]] = {
    val inter = new Array[Interval](q.size)
    var j = 0
    while (j < q.size) {
      key(j).intersect(q(j)) match {
        case Some(iv) => inter(j) = iv
        case None     => return None
      }
      j += 1
    }
    Some(inter)
  }

  /** Range join + de-relativization, no rectangle merging. */
  def joinRaw(rows: Iterable[CRow], query: Seq[Rect]): Vector[Rect] = {
    val b = Vector.newBuilder[Rect]
    rows.foreach { r =>
      // De-relativizing a key interval of length > 1 is only exact per value
      // axis; if two value axes are relative to the SAME key axis (e.g.
      // diagonal lineage), their joint rectangle would overcount. Split such
      // key axes into points so the all-to-all factorization holds again.
      val refCount = new Array[Int](r.out.size)
      r.in.foreach { case RelEnc(k, _) => refCount(k) += 1; case _ => () }
      query.foreach { q =>
        require(q.size == r.out.size, "query arity mismatch")
        rangeJoin(r.out, q) match {
          case None => ()
          case Some(inter) =>
            val conflict = inter.indices.filter(j => refCount(j) >= 2 && inter(j).len > 1)
            val assignments: Iterator[Array[Interval]] =
              if (conflict.isEmpty) Iterator.single(inter)
              else
                conflict.foldLeft(Iterator.single(inter)) { (acc, axis) =>
                  acc.flatMap { base =>
                    (base(axis).lo to base(axis).hi).iterator.map { v =>
                      val c = base.clone(); c(axis) = Interval.point(v); c
                    }
                  }
                }
            assignments.foreach { iv =>
              b += r.in.map {
                case AbsEnc(a)    => a
                case RelEnc(k, d) => iv(k).plus(d)
              }
            }
        }
      }
    }
    b.result()
  }

  /** Row-reduction between hops: drop rectangles contained in another, then
    * merge adjacent/overlapping rectangles per axis — implemented by reusing
    * the ProvRC range-encoding passes over key-side-only rows.
    */
  def mergeRects(rects: Vector[Rect]): Vector[Rect] = {
    if (rects.size <= 1) return rects.distinct
    val distinct = rects.distinct
    val pruned =
      if (distinct.size <= 4096) {
        distinct.filterNot(r =>
          distinct.exists(o =>
            (o ne r) && o != r && o.lazyZip(r).forall((a, b) => a.containsAll(b))
          )
        )
      } else distinct
    val arity = pruned.head.size
    ProvRC
      .compressWRows(pruned.map(r => ProvRC.WRow(r, Vector.empty)), arity, 0)
      .map(_.out)
  }

  /** Exact distinct-cell count of a rectangle set (expands; tests only). */
  def cellSet(rects: Iterable[Rect]): Set[Vector[Long]] =
    rects.iterator.flatMap(expand).toSet

  /** Upper bound on covered cells without expansion (exact when disjoint). */
  def volume(rects: Iterable[Rect]): Long =
    rects.iterator.map(_.foldLeft(1L)(_ * _.len)).sum

  def expand(rect: Rect): Iterator[Vector[Long]] =
    rect.foldLeft(Iterator.single(Vector.empty[Long])) { (acc, iv) =>
      acc.flatMap(p => (iv.lo to iv.hi).iterator.map(v => p :+ v))
    }
}
