package dram

// Request is one 32-byte sector transfer presented to the controller.
type Request struct {
	// Addr is the device-local byte address.
	Addr uint64
	// Write is the direction.
	Write bool
	// Arrive is the cycle the request enters the queue.
	Arrive int64

	// Done is filled by the controller: the cycle the data burst
	// completed (before any codec latency).
	Done int64
}

// Controller is an FR-FCFS (first-ready, first-come-first-served) memory
// controller over one device: among queued requests it issues row hits
// first, oldest first; with no hit, the oldest request wins.
type Controller struct {
	Device *Device
	// ReadPipelineExtra and WritePipelineExtra add fixed pipeline cycles
	// to every read completion / write issue, modeling the decode and
	// encode logic of Table II placed in the controller datapath (§V-B:
	// both fit within one DRAM clock, so the realistic value is 1).
	ReadPipelineExtra  int64
	WritePipelineExtra int64

	queue []*Request
	now   int64

	// Stats.
	sumReadLat int64
	reads      uint64
	lastDone   int64
}

// NewController returns a controller over a fresh GDDR5X device.
func NewController() *Controller {
	return &Controller{Device: NewDevice(GDDR5X())}
}

// Enqueue adds a request to the command queue.
func (c *Controller) Enqueue(r *Request) {
	c.queue = append(c.queue, r)
}

// pending returns the number of queued requests.
func (c *Controller) Pending() int { return len(c.queue) }

// pick applies FR-FCFS among requests that have arrived by `now`.
func (c *Controller) pick(now int64) int {
	best := -1
	bestHit := false
	for i, r := range c.queue {
		if r.Arrive > now {
			continue
		}
		hit := c.Device.RowHit(r.Addr)
		switch {
		case best == -1:
			best, bestHit = i, hit
		case hit && !bestHit:
			best, bestHit = i, hit
		case hit == bestHit && c.queue[i].Arrive < c.queue[best].Arrive:
			best = i
		}
	}
	return best
}

// Drain services every queued request to completion and returns the cycle
// the last burst (plus pipeline latency) finished.
func (c *Controller) Drain() (int64, error) {
	for len(c.queue) > 0 {
		i := c.pick(c.now)
		if i < 0 {
			// Nothing has arrived yet: jump to the next arrival.
			next := c.queue[0].Arrive
			for _, r := range c.queue[1:] {
				if r.Arrive < next {
					next = r.Arrive
				}
			}
			c.now = next
			continue
		}
		// Command-level look-ahead: if the chosen request needs a slow
		// PRE+ACT sequence, a row hit that arrives before that sequence
		// could issue goes first (FR-FCFS reorders column commands into
		// the conflict's latency shadow).
		if !c.Device.RowHit(c.queue[i].Addr) {
			slowAt := c.Device.EarliestIssue(maxI64(c.now, c.queue[i].Arrive),
				c.queue[i].Addr, c.queue[i].Write)
			best := -1
			for j, r := range c.queue {
				if r.Arrive <= slowAt && c.Device.RowHit(r.Addr) {
					if best < 0 || r.Arrive < c.queue[best].Arrive {
						best = j
					}
				}
			}
			if best >= 0 {
				i = best
			}
		}
		r := c.queue[i]
		c.queue = append(c.queue[:i], c.queue[i+1:]...)

		issueAt := c.now
		if r.Arrive > issueAt {
			issueAt = r.Arrive
		}
		if r.Write {
			issueAt += c.WritePipelineExtra // encode before the burst
		}
		done, err := c.Device.Issue(issueAt, r.Addr, r.Write)
		if err != nil {
			return 0, err
		}
		if !r.Write {
			done += c.ReadPipelineExtra // decode after the burst
			c.sumReadLat += done - r.Arrive
			c.reads++
		}
		r.Done = done
		if done > c.lastDone {
			c.lastDone = done
		}
		// Advance past this command slot; later column commands may
		// still overlap this burst's CAS latency.
		c.now = issueAt + 1
	}
	return c.lastDone, nil
}

// AvgReadLatency returns the mean read latency in cycles.
func (c *Controller) AvgReadLatency() float64 {
	if c.reads == 0 {
		return 0
	}
	return float64(c.sumReadLat) / float64(c.reads)
}

// maxI64 returns the larger of two cycle counts.
func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
