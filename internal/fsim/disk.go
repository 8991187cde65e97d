// Package fsim is the file-system substrate: a disk with positioning and
// transfer costs, an inode-style file system with synthetic-content support
// for multi-gigabyte trace workloads, and the metadata block cache that
// remains in the "old" buffer cache under IO-Lite (§4.2).
package fsim

import (
	"iolite/internal/sim"
)

// Disk models one disk: a FIFO arm (positioning + media transfer per
// request). Requests from concurrent processes queue in arrival order.
type Disk struct {
	eng   *sim.Engine
	costs *sim.CostModel
	arm   *sim.Resource

	reads      int64
	writes     int64
	bytesRead  int64
	bytesWrite int64
}

// NewDisk creates a disk using the cost model's seek and transfer rates.
func NewDisk(eng *sim.Engine, costs *sim.CostModel) *Disk {
	return &Disk{eng: eng, costs: costs, arm: sim.NewResource(eng, "disk")}
}

// Read blocks p for one positioning delay plus the media transfer of n
// bytes, behind any queued requests.
func (d *Disk) Read(p *sim.Proc, n int) {
	d.reads++
	d.bytesRead += int64(n)
	d.arm.Use(p, d.costs.DiskSeek+d.costs.DiskTransfer(n))
}

// WriteAsync queues a write of n bytes without blocking the caller
// (write-behind). The arm time is still consumed, delaying later reads.
func (d *Disk) WriteAsync(n int) {
	d.writes++
	d.bytesWrite += int64(n)
	d.arm.Charge(d.costs.DiskSeek + d.costs.DiskTransfer(n))
}

// Stats reports request and byte counters.
func (d *Disk) Stats() (reads, writes, bytesRead, bytesWritten int64) {
	return d.reads, d.writes, d.bytesRead, d.bytesWrite
}

// Utilization reports the disk arm's busy fraction.
func (d *Disk) Utilization() float64 { return d.arm.Utilization() }

// ResetMeters clears counters and utilization accounting.
func (d *Disk) ResetMeters() {
	d.reads, d.writes, d.bytesRead, d.bytesWrite = 0, 0, 0, 0
	d.arm.ResetMeters()
}
