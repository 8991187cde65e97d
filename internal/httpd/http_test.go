package httpd

import (
	"fmt"
	"math"
	"testing"
)

// TestFormattersMatchSprintf: the appending formatters put the same bytes
// on the wire as the fmt.Sprintf renderings they replace.
func TestFormattersMatchSprintf(t *testing.T) {
	for _, path := range []string{"/", "/doc", "/MERGED-90MB/f03274", "/a b"} {
		for _, ka := range []bool{false, true} {
			conn := "close"
			if ka {
				conn = "keep-alive"
			}
			want := fmt.Sprintf("GET %s HTTP/1.1\r\nHost: server\r\nConnection: %s\r\n\r\n", path, conn)
			if got := string(FormatRequest(path, ka)); got != want {
				t.Errorf("FormatRequest(%q, %v) = %q, want %q", path, ka, got, want)
			}
		}
	}
	for _, server := range []string{"Flash-Lite", "Apache", ""} {
		for _, n := range []int64{0, 7, 1448, 1 << 20, math.MaxInt64, -1} {
			want := fmt.Sprintf("HTTP/1.1 200 OK\r\nServer: %s\r\nContent-Length: %d\r\n\r\n", server, n)
			if got := string(FormatResponseHeader(server, n)); got != want {
				t.Errorf("FormatResponseHeader(%q, %d) = %q, want %q", server, n, got, want)
			}
		}
	}
}

func TestParseRequest(t *testing.T) {
	for _, ka := range []bool{false, true} {
		req := FormatRequest("/x/f00042", ka)
		path, keepalive, ok := ParseRequest(req)
		if !ok || path != "/x/f00042" || keepalive != ka {
			t.Errorf("ParseRequest(%q) = %q, %v, %v", req, path, keepalive, ok)
		}
		if _, _, ok := ParseRequest(req[:len(req)-1]); ok {
			t.Errorf("incomplete request %q parsed", req[:len(req)-1])
		}
	}
	for _, bad := range []string{
		"POST /x HTTP/1.1\r\n\r\n",
		"get /x HTTP/1.1\r\n\r\n",
		"GET /x\r\n\r\n",
		"",
	} {
		if _, _, ok := ParseRequest([]byte(bad)); ok {
			t.Errorf("ParseRequest accepted %q", bad)
		}
	}
}

func TestParseResponseHeader(t *testing.T) {
	for _, n := range []int64{0, 1448, math.MaxInt64} {
		hdr := FormatResponseHeader("Flash", n)
		data := append(hdr, "body"...)
		start, cl, ok := ParseResponseHeader(data)
		if !ok || start != len(hdr) || cl != n {
			t.Errorf("ParseResponseHeader(%q) = %d, %d, %v; want %d, %d", data, start, cl, ok, len(hdr), n)
		}
		if _, _, ok := ParseResponseHeader(hdr[:len(hdr)-1]); ok {
			t.Errorf("incomplete header %q parsed", hdr[:len(hdr)-1])
		}
	}
	for _, bad := range []string{
		"HTTP/1.1 200 OK\r\nServer: x\r\n\r\n",                           // no Content-Length
		"HTTP/1.1 200 OK\r\n\r\nContent-Length: 5\r\n",                   // only in the body
		"HTTP/1.1 200 OK\r\nContent-Length: \r\n\r\n",                    // empty
		"HTTP/1.1 200 OK\r\nContent-Length: 12a\r\n\r\n",                 // non-digit
		"HTTP/1.1 200 OK\r\nContent-Length: -5\r\n\r\n",                  // sign
		"HTTP/1.1 200 OK\r\nContent-Length: 9223372036854775808\r\n\r\n", // overflow
	} {
		if _, _, ok := ParseResponseHeader([]byte(bad)); ok {
			t.Errorf("ParseResponseHeader accepted %q", bad)
		}
	}
}

// TestParseResponseHeaderAllocatesNothing: every client parses a header
// per response, so the length is read from the bytes without a copy.
func TestParseResponseHeaderAllocatesNothing(t *testing.T) {
	data := append(FormatResponseHeader("Flash-Lite", 1<<20), "body"...)
	if n := testing.AllocsPerRun(100, func() { ParseResponseHeader(data) }); n != 0 {
		t.Fatalf("ParseResponseHeader allocates %.0f times, want 0", n)
	}
}
