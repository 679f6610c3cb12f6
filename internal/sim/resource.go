package sim

// FIFO models a single-server resource (an I/O bus, an NI processor, a
// memory bus) with first-come-first-served occupancy.  A reservation made
// at time `now` for `dur` cycles begins when the resource frees up and
// occupies it for the duration; the caller learns both the start and end
// times so it can charge queueing (contention) separately from service.
type FIFO struct {
	name   string
	freeAt Time

	// Accumulated statistics.
	busyCycles Time
	waitCycles Time
	uses       int64
}

// NewFIFO returns an idle FIFO resource.
func NewFIFO(name string) *FIFO {
	return &FIFO{name: name}
}

// Reserve books the resource for dur cycles starting no earlier than now.
// It returns the service start and end times.  dur may be zero.
func (r *FIFO) Reserve(now Time, dur Time) (start, end Time) {
	if dur < 0 {
		panic("sim: negative reservation")
	}
	start = now
	if r.freeAt > start {
		start = r.freeAt
	}
	end = start + dur
	r.freeAt = end
	r.busyCycles += dur
	r.waitCycles += start - now
	r.uses++
	return start, end
}

// Name reports the resource name.
func (r *FIFO) Name() string { return r.name }

// BusyCycles reports total service time charged so far.
func (r *FIFO) BusyCycles() Time { return r.busyCycles }

// WaitCycles reports total queueing delay experienced by reservations.
func (r *FIFO) WaitCycles() Time { return r.waitCycles }

// Uses reports the number of reservations.
func (r *FIFO) Uses() int64 { return r.uses }

// Bandwidth models a pipe with a fixed transfer rate in bytes per cycle,
// expressed as a rational (bytesNum/bytesDen bytes per cycle) so that
// fractional rates like 0.66 B/cy are exact.  Transfers occupy the pipe
// FIFO, modeling contention among concurrent transfers.
type Bandwidth struct {
	fifo     FIFO
	bytesNum int64 // rate numerator: bytes
	bytesDen int64 // rate denominator: cycles
}

// NewBandwidth creates a pipe transferring bytesNum bytes every bytesDen
// cycles.  A zero bytesNum means infinite bandwidth (transfers are free).
func NewBandwidth(name string, bytesNum, bytesDen int64) *Bandwidth {
	if bytesDen <= 0 {
		bytesDen = 1
	}
	return &Bandwidth{fifo: FIFO{name: name}, bytesNum: bytesNum, bytesDen: bytesDen}
}

// TransferCycles reports how long moving n bytes takes at this rate,
// rounding up to whole cycles.  Infinite-bandwidth pipes report zero.
func (b *Bandwidth) TransferCycles(n int64) Time {
	if n <= 0 || b.bytesNum <= 0 {
		return 0
	}
	// ceil(n * den / num)
	return (n*b.bytesDen + b.bytesNum - 1) / b.bytesNum
}

// Reserve books the pipe for an n-byte transfer starting no earlier than
// now, returning service start and end.
func (b *Bandwidth) Reserve(now Time, n int64) (start, end Time) {
	return b.fifo.Reserve(now, b.TransferCycles(n))
}

// BusyCycles reports total service time charged so far.
func (b *Bandwidth) BusyCycles() Time { return b.fifo.BusyCycles() }

// Uses reports the number of transfers.
func (b *Bandwidth) Uses() int64 { return b.fifo.Uses() }
