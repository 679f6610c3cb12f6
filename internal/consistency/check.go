package consistency

import (
	"fmt"

	"swsm/internal/proto"
)

// compactLimit bounds the retained write history per word: when a word
// accumulates more writes, every write that is already covered below the
// machine-wide vector-clock floor (and therefore can never again be a
// legal read source or an uncovered frontier write) is discarded.
const compactLimit = 192

// writeRec is one word write.  Under RC it carries its writer's vector
// clock at the store as an epoch: the writer's own component is opIdx,
// the writer's position in its own clock, and every other component is
// in snapshot snap.  SC uses only time, val and proc.
type writeRec struct {
	time  int64
	val   uint32
	proc  int32
	opIdx int32
	snap  int32
}

// loc is the write state of one stored-to word.  Its write records are
// writes[at : at+n] of the recorder's slab, in a region with room for
// size records: under RC the word's write history in record order, under
// SC its last store alone.
type loc struct {
	init        uint32
	at, n, size int32
	// compacted notes that covered writes were discarded, so a thin-air
	// diagnosis may actually be a (hopelessly stale) dropped write.
	compacted bool
}

// history returns l's write records.
func (r *Recorder) history(l *loc) []writeRec { return r.writes[l.at : l.at+l.n] }

// store records one word write.
func (r *Recorder) store(wa int64, w writeRec) {
	r.sum.Stores++
	e := &r.words[wa>>2]
	if e.loc == 0 {
		r.locs = extend(r.locs, 1)
		e.loc = int32(len(r.locs))
		r.locs[e.loc-1].init = e.last
	}
	e.last = w.val
	l := &r.locs[e.loc-1]
	if r.model == proto.ModelSC {
		l.n = 0
	}
	if l.n == l.size {
		r.move(l)
	}
	r.writes[l.at+l.n] = w
	l.n++
	if l.n > compactLimit {
		r.compact(l)
	}
}

// move gives a full history a region of twice the size at the end of the
// slab.  The old region is left unused; a word's abandoned regions add up
// to less than its current one, and that doubles only when the history
// fills it.
func (r *Recorder) move(l *loc) {
	size := max(2*l.size, 1)
	at := int32(len(r.writes))
	r.writes = extend(r.writes, int(size))
	copy(r.writes[at:], r.history(l))
	l.at, l.size = at, size
}

// load checks one word load against the declared model.
func (r *Recorder) load(wa int64, v uint32, proc int32, now int64) *Violation {
	r.sum.Loads++
	if r.model == proto.ModelSC {
		return r.loadSC(wa, v, proc, now)
	}
	return r.loadRC(wa, v, proc, now)
}

// --- release-consistency checking ---
//
// Every processor carries a vector clock, bumped at each of its
// operations.  Every clock the checker holds — processors', locks',
// barrier episodes' — is a join of whole processor clocks, and a
// processor's clock moves in another processor's component only when an
// acquire or a barrier departure joins a clock into it.  So each test the
// checker makes is a single compare on the writer's component, and exact:
// a write w happens-before a clock V iff w.opIdx <= V[w.proc] (the epoch
// representation of FastTrack, Flanagan & Freund, PLDI 2009).  A write
// record still needs its writer's other components to order it before
// later writes; it shares them with every store its writer makes between
// two joins through one snapshot, taken at the first of those stores.

type opKind uint8

const (
	opAcquire opKind = iota
	opRelease
	opBarArrive
	opBarDepart
)

// syncRec is one synchronization event kept for happens-before path
// reconstruction.  seq (its index in the slice) is the global record
// order.
type syncRec struct {
	obj     int64
	time    int64
	opIdx   int32
	proc    int32
	episode int32
	kind    opKind
}

type barEpisode struct {
	vc        []int32
	remaining int
}

type barState struct {
	forming  []int32
	arrived  int
	queue    []barEpisode
	arriveEp int32
	departEp int32
}

// clock returns processor p's vector clock.
func (r *Recorder) clock(p int32) []int32 {
	return r.clocks[int(p)*r.procs : (int(p)+1)*r.procs]
}

// tick gives proc's next operation its own position in its clock and
// returns it; this is what makes "no sync in between" visible as
// vector-clock concurrency.
func (r *Recorder) tick(p int32) int32 {
	i := int(p) * (r.procs + 1)
	r.clocks[i]++
	return r.clocks[i]
}

// snapshot returns p's current clock snapshot, copying the clock if a
// join has changed it since the last copy.  Between joins the clock moves
// only in p's own component, which each write record keeps as its opIdx.
func (r *Recorder) snapshot(p int32) int32 {
	if s := r.cur[p]; s >= 0 {
		return s
	}
	s := int32(len(r.snaps) / r.procs)
	r.snaps = append(r.snaps, r.clock(p)...)
	r.cur[p] = s
	return s
}

// at returns w's writer clock component for processor q.
func (r *Recorder) at(w *writeRec, q int32) int32 {
	if q == w.proc {
		return w.opIdx
	}
	return r.snaps[int(w.snap)*r.procs+int(q)]
}

// hb reports whether w happens-before clock vc.
func hb(w *writeRec, vc []int32) bool { return w.opIdx <= vc[w.proc] }

// before reports whether w happens-before w2.
func (r *Recorder) before(w, w2 *writeRec) bool { return r.at(w2, w.proc) >= w.opIdx }

// sync records one synchronization operation: under SC it is only
// counted, under RC it is folded into the clocks.
func (r *Recorder) sync(kind opKind, proc int32, obj int64, now int64) {
	r.events++
	if r.done {
		return
	}
	if r.model == proto.ModelSC {
		r.sum.SyncOps++
		return
	}
	r.tick(proc)
	vc := r.clock(proc)
	var episode int32
	switch kind {
	case opAcquire:
		if lvc, ok := r.locks[obj]; ok && joinInto(vc, lvc) {
			r.cur[proc] = -1
		}
	case opRelease:
		lvc := r.locks[obj]
		if lvc == nil {
			lvc = make([]int32, r.procs)
			r.locks[obj] = lvc
		}
		joinInto(lvc, vc)
	case opBarArrive:
		b := r.bar(obj)
		if b.forming == nil {
			b.forming = make([]int32, r.procs)
		}
		joinInto(b.forming, vc)
		episode = b.arriveEp
		b.arrived++
		if b.arrived == r.procs {
			b.queue = append(b.queue, barEpisode{vc: b.forming, remaining: r.procs})
			b.forming = nil
			b.arrived = 0
			b.arriveEp++
		}
	case opBarDepart:
		b := r.bar(obj)
		if len(b.queue) == 0 {
			// A depart with no completed episode means the recorder and
			// protocol disagree about barrier structure — that is itself
			// a violation of the contract.
			r.fail(&Violation{
				Model: proto.ModelRC, Proc: proc, Addr: obj, Cycle: now,
				Want: fmt.Sprintf("proc %d departed barrier %d before all %d processors arrived",
					proc, obj, r.procs),
			})
			return
		}
		ep := &b.queue[0]
		if joinInto(vc, ep.vc) {
			r.cur[proc] = -1
		}
		episode = b.departEp
		ep.remaining--
		if ep.remaining == 0 {
			b.queue = b.queue[1:]
			b.departEp++
		}
	}
	r.sum.SyncOps++
	r.syncs = append(r.syncs, syncRec{
		obj: obj, time: now, opIdx: vc[proc], proc: proc, episode: episode, kind: kind,
	})
}

func (r *Recorder) bar(id int64) *barState {
	b := r.bars[id]
	if b == nil {
		b = &barState{}
		r.bars[id] = b
	}
	return b
}

// compact drops writes that can never matter again: a write covered by a
// later write whose clock is below the floor (the componentwise minimum
// of all processors' clocks) is covered for every future load.
func (r *Recorder) compact(l *loc) {
	floor := r.floor
	copy(floor, r.clock(0))
	for p := int32(1); p < int32(r.procs); p++ {
		for q, x := range r.clock(p) {
			if x < floor[q] {
				floor[q] = x
			}
		}
	}
	// Newest first: cover[q] is the largest q component among the
	// below-floor writes after the current one, so the current write w
	// is covered by one of them iff cover[w.proc] >= w.opIdx.
	cover := r.cover
	for q := range cover {
		cover[q] = 0
	}
	ws := r.history(l)
	k := len(ws)
	for i := len(ws) - 1; i >= 0; i-- {
		w := ws[i]
		if cover[w.proc] >= w.opIdx {
			l.compacted = true
		} else {
			k--
			ws[k] = w
		}
		if hb(&w, floor) {
			for q := range cover {
				if c := r.at(&w, int32(q)); c > cover[q] {
					cover[q] = c
				}
			}
		}
	}
	l.n = int32(copy(ws, ws[k:]))
}

// loadRC verifies one word load under release consistency: the value
// must come from a write concurrent with the load, from a happens-before
// write not covered by a later happens-before write, or be the
// initialization value when no write happens-before the load.
func (r *Recorder) loadRC(wa int64, v uint32, proc int32, now int64) *Violation {
	// The most recently recorded write is always a legal source: it is
	// either concurrent with the load or the happens-before frontier.
	// Before the first write, so is the initialization value.
	e := r.words[wa>>2]
	if v == e.last {
		return nil
	}
	if e.loc == 0 {
		return r.thinAir(wa, v, proc, now, e.last, nil)
	}
	l := &r.locs[e.loc-1]
	ws := r.history(l)
	vc := r.clock(proc)
	var stale, cover *writeRec
	for i := range ws {
		w := &ws[i]
		if w.val != v {
			continue
		}
		if !hb(w, vc) {
			return nil // concurrent write: RC permits observing it
		}
		covered := false
		for j := i + 1; j < len(ws); j++ {
			w2 := &ws[j]
			if r.before(w, w2) && hb(w2, vc) {
				covered = true
				if stale == nil {
					stale, cover = w, w2
				}
				break
			}
		}
		if !covered {
			return nil // uncovered happens-before write: frontier member
		}
	}
	if v == l.init {
		// The init value survives only while no write happens-before the
		// load.
		var last *writeRec
		for i := range ws {
			if hb(&ws[i], vc) {
				last = &ws[i]
			}
		}
		if last == nil && !l.compacted {
			return nil
		}
		viol := &Violation{
			Model: proto.ModelRC, Proc: proc, Addr: wa, Cycle: now, Got: v,
			Want: fmt.Sprintf("returned the initialization value 0x%x, but it was overwritten in happens-before before this load", l.init),
		}
		if last != nil {
			viol.Want += fmt.Sprintf(" (by the store of 0x%x by proc %d at cycle %d)", last.val, last.proc, last.time)
			viol.Path = r.hbPath(last, wa, v, proc, now)
		}
		return viol
	}
	if stale != nil {
		return &Violation{
			Model: proto.ModelRC, Proc: proc, Addr: wa, Cycle: now, Got: v,
			Want: fmt.Sprintf("0x%x is stale: it matches the store by proc %d at cycle %d, which is covered by the store of 0x%x by proc %d at cycle %d that happens-before this load",
				v, stale.proc, stale.time, cover.val, cover.proc, cover.time),
			Path: r.hbPath(cover, wa, v, proc, now),
		}
	}
	return r.thinAir(wa, v, proc, now, l.init, l)
}

func (r *Recorder) thinAir(wa int64, v uint32, proc int32, now int64, initVal uint32, l *loc) *Violation {
	want := fmt.Sprintf("0x%x was never written to this word (init 0x%x", v, initVal)
	if l != nil {
		want += fmt.Sprintf(", %d retained stores", l.n)
		if l.compacted {
			want += "; history compacted, value may be a long-dead store"
		}
	}
	want += ")"
	return &Violation{
		Model: proto.ModelRC, Proc: proc, Addr: wa, Cycle: now, Got: v, Want: want,
	}
}

// hbPath reconstructs the happens-before chain from write w to the load
// by proc at cycle now: the store, the sync operations that order it
// before the load, and the load itself.
func (r *Recorder) hbPath(w *writeRec, wa int64, got uint32, proc int32, now int64) []string {
	path := []string{fmt.Sprintf("store 0x%x to 0x%x by proc %d @ cycle %d", w.val, wa, w.proc, w.time)}
	if w.proc != proc {
		loadIdx := r.clock(proc)[proc]
		for _, i := range r.syncChain(w.proc, w.opIdx, proc, loadIdx) {
			path = append(path, r.formatSync(&r.syncs[i]))
		}
	}
	path = append(path, fmt.Sprintf("load of 0x%x by proc %d @ cycle %d returned 0x%x", wa, proc, now, got))
	return path
}

// syncChain finds (by BFS, so fewest hops) a chain of sync events
// carrying order from (srcProc, after srcIdx) to (dstProc, before
// dstIdx).  Edges are program order, release→acquire on the same lock
// (cumulative, in record order), and arrive→depart of the same barrier
// episode.
func (r *Recorder) syncChain(srcProc int32, srcIdx int32, dstProc int32, dstIdx int32) []int {
	n := len(r.syncs)
	parent := make([]int, n)
	visited := make([]bool, n)
	var queue []int
	for i := range r.syncs {
		s := &r.syncs[i]
		if s.proc == srcProc && s.opIdx > srcIdx {
			visited[i] = true
			parent[i] = -1
			queue = append(queue, i)
		}
	}
	edge := func(a, b *syncRec, ai, bi int) bool {
		if a.proc == b.proc {
			return b.opIdx > a.opIdx
		}
		if a.kind == opRelease && b.kind == opAcquire {
			return a.obj == b.obj && bi > ai
		}
		if a.kind == opBarArrive && b.kind == opBarDepart {
			return a.obj == b.obj && a.episode == b.episode
		}
		return false
	}
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		s := &r.syncs[i]
		if s.proc == dstProc && s.opIdx < dstIdx {
			var rev []int
			for j := i; j != -1; j = parent[j] {
				rev = append(rev, j)
			}
			chain := make([]int, 0, len(rev))
			for k := len(rev) - 1; k >= 0; k-- {
				chain = append(chain, rev[k])
			}
			return chain
		}
		for j := range r.syncs {
			if !visited[j] && edge(s, &r.syncs[j], i, j) {
				visited[j] = true
				parent[j] = i
				queue = append(queue, j)
			}
		}
	}
	return nil
}

func (r *Recorder) formatSync(s *syncRec) string {
	switch s.kind {
	case opAcquire:
		return fmt.Sprintf("acquire(lock %d) by proc %d @ cycle %d", s.obj, s.proc, s.time)
	case opRelease:
		return fmt.Sprintf("release(lock %d) by proc %d @ cycle %d", s.obj, s.proc, s.time)
	case opBarArrive:
		return fmt.Sprintf("barrier %d arrive (episode %d) by proc %d @ cycle %d", s.obj, s.episode, s.proc, s.time)
	case opBarDepart:
		return fmt.Sprintf("barrier %d depart (episode %d) by proc %d @ cycle %d", s.obj, s.episode, s.proc, s.time)
	}
	return fmt.Sprintf("sync op by proc %d @ cycle %d", s.proc, s.time)
}

// --- sequential-consistency checking ---

// loadSC verifies the linearizable contract: every load returns exactly
// the most recent write to its word in execution order (or the
// initialization value before any write).
func (r *Recorder) loadSC(wa int64, v uint32, proc int32, now int64) *Violation {
	e := r.words[wa>>2]
	if v == e.last {
		return nil
	}
	src := "the initialization value"
	var path []string
	if e.loc != 0 {
		last := &r.writes[r.locs[e.loc-1].at]
		src = fmt.Sprintf("the most recent store, by proc %d at cycle %d", last.proc, last.time)
		path = []string{
			fmt.Sprintf("store 0x%x to 0x%x by proc %d @ cycle %d", last.val, wa, last.proc, last.time),
			fmt.Sprintf("load of 0x%x by proc %d @ cycle %d returned 0x%x", wa, proc, now, v),
		}
	}
	return &Violation{
		Model: proto.ModelSC, Proc: proc, Addr: wa, Cycle: now, Got: v,
		Want: fmt.Sprintf("SC permits only 0x%x here (%s)", e.last, src),
		Path: path,
	}
}

// joinInto sets dst to the componentwise maximum of dst and src and
// reports whether that changed dst.
func joinInto(dst, src []int32) bool {
	changed := false
	for i, x := range src {
		if x > dst[i] {
			dst[i] = x
			changed = true
		}
	}
	return changed
}
