// CGI pipeline: a caching CGI process hands a dynamic document to a server
// process across a pipe — by copy (conventional UNIX) and by reference
// (IO-Lite, §3.10/§4.4) — demonstrating fault isolation via separate
// buffer pools with different ACLs, persistent cross-domain grants, and the
// CPU cost gap that drives Figures 5 and 6.
//
// Both variants run the same descriptor calls: the pipe ends are ordinary
// file descriptors, and IOL_read/IOL_write (or POSIX read/write) on them
// look exactly like they do on files and sockets.
//
//	go run ./examples/cgipipeline
package main

import (
	"bytes"
	"fmt"

	"iolite"
	"iolite/internal/core"
)

// run serves the document over a reference-mode pipe when ref is set, a
// copy-mode one otherwise.
func run(ref bool) {
	sys := iolite.NewSystem(iolite.SystemConfig{})
	cgi := sys.NewProcess("cgi", 1<<20)
	srv := sys.NewProcess("server", 1<<20)
	rfd, wfd := sys.Pipe2(srv, cgi, ref)

	doc := bytes.Repeat([]byte("<li>dynamic item</li>\n"), 3000) // ~64 KB
	const requests = 5

	label := "copy-mode pipe (conventional)"
	if ref {
		label = "reference-mode pipe (IO-Lite)"
	}

	// The CGI worker: caches the generated document and serves it
	// repeatedly.
	sys.Go("cgi", func(p *iolite.Proc) {
		var cached *core.Agg // the caching CGI program of §3.10
		for i := 0; i < requests; i++ {
			if !ref {
				sys.WritePOSIX(p, cgi, wfd, doc)
				continue
			}
			if cached == nil {
				cached = core.PackBytes(p, cgi.Pool, doc)
			}
			sys.IOLWrite(p, cgi, wfd, cached.Clone())
		}
		sys.Close(p, cgi, wfd)
	})

	// The server: receives each document and "sends" it (here: verifies).
	var received, bad int
	sys.Go("server", func(p *iolite.Proc) {
		for {
			if !ref {
				// The byte stream has no message boundaries: read exactly
				// one document's worth.
				buf := make([]byte, 0, len(doc))
				tmp := make([]byte, 16<<10)
				for len(buf) < len(doc) {
					want := len(doc) - len(buf)
					if want > len(tmp) {
						want = len(tmp)
					}
					n, err := sys.ReadPOSIX(p, srv, rfd, tmp[:want])
					if err != nil {
						break
					}
					buf = append(buf, tmp[:n]...)
				}
				if len(buf) == 0 {
					break
				}
				if !bytes.Equal(buf, doc) {
					bad++
				}
			} else {
				a, err := sys.IOLRead(p, srv, rfd, int64(len(doc)))
				if err != nil {
					break
				}
				// The transfer granted this domain read access; the bytes
				// are the producer's own buffers, unchanged.
				if !a.Equal(doc) {
					bad++
				}
				a.Release()
			}
			received++
		}
		d, _ := srv.Desc(rfd)
		moved, copied, _, _ := iolite.PipeStats(d)
		fmt.Printf("%-34s %d docs, %d KB moved, %d KB copied, CPU busy %v (corrupt: %d)\n",
			label, received, moved>>10, copied>>10, sys.CPU().BusyTime(), bad)
	})
	sys.Eng.Run()
}

func main() {
	fmt.Println("A CGI process serves the same cached document 5 times over a pipe:")
	run(false)
	run(true)
	fmt.Println("\nReference mode moves the same bytes with zero copies — the dynamic-content")
	fmt.Println("path keeps full fault isolation (separate pools/ACLs) at library-API speed.")
}
