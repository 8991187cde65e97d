package fsim

import (
	"encoding/binary"
	"fmt"

	"iolite/internal/mem"
	"iolite/internal/sim"
)

// FileID identifies a file for the unified cache (§3.5 keys cache entries by
// ⟨file-id, offset, length⟩).
type FileID int64

// File is an inode. Trace-workload files carry synthetic content generated
// deterministically from (id, offset) so that multi-gigabyte data sets need
// no real storage; writes overlay real bytes on top.
type File struct {
	ID   FileID
	Name string
	size int64

	// overlay holds written extents, keyed by page index; nil until the
	// first write.
	overlay map[int64][]byte
}

// Size returns the file length in bytes.
func (f *File) Size() int64 { return f.size }

// FS is a flat-namespace file system on one disk, with a metadata cache
// standing in for the old buffer cache (file system metadata stays there
// under IO-Lite, §4.2).
type FS struct {
	eng   *sim.Engine
	costs *sim.CostModel
	vm    *mem.VM
	disk  *Disk

	files  map[string]*File
	byID   map[FileID]*File
	nextID FileID

	// metaHot tracks files whose metadata is cached; a miss costs a disk
	// read. Bounded; coarsely cleared when full.
	metaHot map[FileID]bool
	metaCap int

	metaHits, metaMisses int64
}

// NewFS creates an empty file system backed by disk. A fixed metadata-cache
// reservation is charged to the VM under TagMetadata.
func NewFS(eng *sim.Engine, costs *sim.CostModel, vm *mem.VM, disk *Disk) *FS {
	fs := &FS{
		eng:     eng,
		costs:   costs,
		vm:      vm,
		disk:    disk,
		files:   make(map[string]*File),
		byID:    make(map[FileID]*File),
		metaHot: make(map[FileID]bool),
		metaCap: 131072,
	}
	vm.Reserve(mem.TagMetadata, mem.PagesFor(2<<20)) // 2 MB buffer cache for metadata
	return fs
}

// Create makes a file of the given size with synthetic content. Creating an
// existing name truncates it back to synthetic content.
func (fs *FS) Create(name string, size int64) *File {
	fs.nextID++
	f := &File{ID: fs.nextID, Name: name, size: size}
	fs.files[name] = f
	fs.byID[f.ID] = f
	return f
}

// Lookup resolves a name, charging the open cost and a metadata disk read
// if the file's metadata is cold. It returns nil if the name is absent.
func (fs *FS) Lookup(p *sim.Proc, name string) *File {
	if p != nil {
		p.Sleep(fs.costs.FileOpen)
	}
	f, ok := fs.files[name]
	if !ok {
		return nil
	}
	if !fs.metaHot[f.ID] {
		fs.metaMisses++
		if len(fs.metaHot) >= fs.metaCap {
			fs.metaHot = make(map[FileID]bool)
		}
		fs.metaHot[f.ID] = true
		if p != nil {
			fs.disk.Read(p, 512)
		}
	} else {
		fs.metaHits++
	}
	return f
}

// ByID returns the file with the given id.
func (fs *FS) ByID(id FileID) *File { return fs.byID[id] }

// NumFiles reports how many files exist.
func (fs *FS) NumFiles() int { return len(fs.files) }

// synthWord returns the deterministic synthetic content of file id's
// 8-byte word w, the bytes at offsets [8w, 8w+8) in little-endian order.
// One multiplicative hash yields the whole word, so filling a page costs
// one hash per 8 bytes. Every byte has its low bit set, so content is
// never zero, which catches zeroed-buffer bugs.
func synthWord(id FileID, w int64) uint64 {
	x := uint64(w) ^ uint64(id)*0x9e3779b97f4a7c15
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	return x | 0x0101010101010101
}

// synthFill writes file id's synthetic content at [off, off+len(dst))
// into dst: the partial words at either end byte by byte, the rest one
// word per hash.
func synthFill(id FileID, off int64, dst []byte) {
	i := 0
	if r := off & 7; r != 0 {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], synthWord(id, off>>3))
		i = copy(dst, w[r:])
	}
	w := (off + int64(i)) >> 3
	for ; i+8 <= len(dst); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], synthWord(id, w))
		w++
	}
	if i < len(dst) {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], synthWord(id, w))
		copy(dst[i:], tail[:])
	}
}

// ReadRange reads [off, off+n) of the file from disk into dst, blocking p
// for the disk time. Content correctness is exact: overlay pages reflect
// writes; other pages carry synthetic content.
func (fs *FS) ReadRange(p *sim.Proc, f *File, off int64, dst []byte) {
	n := int64(len(dst))
	if off < 0 || off+n > f.size {
		panic(fmt.Sprintf("fsim: read [%d,%d) beyond size %d of %s", off, off+n, f.size, f.Name))
	}
	if p != nil {
		fs.disk.Read(p, int(n))
	}
	if len(f.overlay) == 0 {
		synthFill(f.ID, off, dst)
		return
	}
	// Fill page by page so overlays land exactly.
	for filled := int64(0); filled < n; {
		pg := (off + filled) / mem.PageSize
		pgOff := (off + filled) % mem.PageSize
		take := min(mem.PageSize-pgOff, n-filled)
		part := dst[filled : filled+take]
		if ov, ok := f.overlay[pg]; ok {
			copy(part, ov[pgOff:])
		} else {
			synthFill(f.ID, off+filled, part)
		}
		filled += take
	}
}

// Expected returns the bytes a correct read of [off, off+n) must produce;
// tests and clients use it to verify end-to-end data integrity.
func (fs *FS) Expected(f *File, off, n int64) []byte {
	dst := make([]byte, n)
	fs.ReadRange(nil, f, off, dst)
	return dst
}

// WriteRange overwrites [off, off+len(src)) of the file, growing it if the
// write extends past EOF. The disk write is charged asynchronously
// (write-behind); the caller has already paid any copy costs.
func (fs *FS) WriteRange(f *File, off int64, src []byte) {
	n := int64(len(src))
	if off < 0 {
		panic("fsim: negative write offset")
	}
	if off+n > f.size {
		f.size = off + n
	}
	for written := int64(0); written < n; {
		pg := (off + written) / mem.PageSize
		pgOff := (off + written) % mem.PageSize
		take := mem.PageSize - pgOff
		if take > n-written {
			take = n - written
		}
		ov, ok := f.overlay[pg]
		if !ok {
			if f.overlay == nil {
				f.overlay = make(map[int64][]byte)
			}
			ov = make([]byte, mem.PageSize)
			synthFill(f.ID, pg*mem.PageSize, ov)
			f.overlay[pg] = ov
		}
		copy(ov[pgOff:pgOff+take], src[written:written+take])
		written += take
	}
	fs.disk.WriteAsync(int(n))
}
