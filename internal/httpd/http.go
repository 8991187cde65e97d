// Package httpd implements the paper's measured applications: an
// event-driven Web server in three configurations — Flash-Lite (IO-Lite
// API: copy-free serving, checksum caching, customizable file cache
// replacement), Flash (aggressively optimized conventional server using
// mmap), and an Apache-like process-per-connection server — plus
// FastCGI-style dynamic content workers over pipes (§3.10, §5) and the
// closed-loop HTTP clients that drive them.
package httpd

import (
	"bytes"
	"strconv"
)

var (
	headerEnd     = []byte("\r\n\r\n")
	getMethod     = []byte("GET ")
	keepAlive     = []byte("keep-alive")
	contentLength = []byte("Content-Length: ")
)

// FormatRequest renders a minimal HTTP request.
func FormatRequest(path string, keepalive bool) []byte {
	conn := "close"
	if keepalive {
		conn = "keep-alive"
	}
	const head, mid = "GET ", " HTTP/1.1\r\nHost: server\r\nConnection: "
	b := make([]byte, 0, len(head)+len(path)+len(mid)+len(conn)+len(headerEnd))
	b = append(b, head...)
	b = append(b, path...)
	b = append(b, mid...)
	b = append(b, conn...)
	return append(b, headerEnd...)
}

// ParseRequest extracts the path and keep-alive flag from a complete
// request. ok is false if req is not yet complete (no blank line).
func ParseRequest(req []byte) (path string, keepalive, ok bool) {
	if !bytes.Contains(req, headerEnd) || !bytes.HasPrefix(req, getMethod) {
		return "", false, false
	}
	rest := req[len(getMethod):]
	sp := bytes.IndexByte(rest, ' ')
	if sp < 0 {
		return "", false, false
	}
	return string(rest[:sp]), bytes.Contains(req, keepAlive), true
}

// FormatResponseHeader renders the response header for a body of n bytes.
func FormatResponseHeader(server string, n int64) []byte {
	const head, mid = "HTTP/1.1 200 OK\r\nServer: ", "\r\nContent-Length: "
	const maxDigits = 20 // -9223372036854775808
	b := make([]byte, 0, len(head)+len(server)+len(mid)+maxDigits+len(headerEnd))
	b = append(b, head...)
	b = append(b, server...)
	b = append(b, mid...)
	b = strconv.AppendInt(b, n, 10)
	return append(b, headerEnd...)
}

// ParseResponseHeader finds the header/body split and the content length.
// ok is false until the full header has arrived, and for a header without
// a Content-Length of decimal digits.
func ParseResponseHeader(data []byte) (bodyStart int, contentLen int64, ok bool) {
	end := bytes.Index(data, headerEnd)
	if end < 0 {
		return 0, 0, false
	}
	bodyStart = end + len(headerEnd)
	i := bytes.Index(data, contentLength)
	if i < 0 || i > end {
		return 0, 0, false
	}
	rest := data[i+len(contentLength):]
	j := bytes.IndexByte(rest, '\r')
	if j < 0 {
		return 0, 0, false
	}
	// Unsigned, 63 bits: digits only, at most MaxInt64. The string
	// conversion does not escape, so it does not allocate.
	n, err := strconv.ParseUint(string(rest[:j]), 10, 63)
	if err != nil {
		return 0, 0, false
	}
	return bodyStart, int64(n), true
}
