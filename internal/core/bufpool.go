package core

import (
	"strings"
	"sync"
)

// bufPool recycles the scratch buffers of the forward hot path (a forward's
// request and response plaintext and its sealed record, gate frames,
// response assembly). Buffers are pooled as *[]byte so Get/Put never
// allocate at steady state, and grow to their working size once.
//
// Ownership rule: a buffer obtained with getBuf is owned by the caller
// until putBuf; slices derived from it (decoded queries, unpadded
// plaintexts) die with it and must be copied before the put. Never put a
// buffer whose contents were returned to a caller.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 1024)
		return &b
	},
}

// maxPooledBuf is the largest buffer putBuf keeps. A record may be as long
// as the wire allows, but one unusual page must not leave a buffer that size
// circulating for every later forward to carry.
const maxPooledBuf = 64 << 10

func getBuf() *[]byte {
	return bufPool.Get().(*[]byte)
}

func putBuf(b *[]byte) {
	if cap(*b) > maxPooledBuf {
		return
	}
	bufPool.Put(b)
}

// queryChunk is the size of the chunks engine query strings are cut from.
const queryChunk = 16 << 10

// queryChunks holds partly filled chunks for engineQuery. A chunk is an
// append-only strings.Builder: the standard library never rewrites bytes a
// Builder has written, and a full chunk is let go rather than grown, so a
// string cut from String() stays valid for as long as anyone holds it. A
// full chunk stays reachable only while a string cut from it does.
var queryChunks = sync.Pool{
	New: func() any {
		b := new(strings.Builder)
		b.Grow(queryChunk)
		return b
	},
}

// engineQuery returns the query bytes as a string for Backend.Search. The
// string is cut from a shared chunk instead of allocated on its own, so a
// relayed record costs no allocation; the backend may keep it. A query
// longer than a quarter chunk is converted alone.
func engineQuery(q []byte) string {
	if len(q) > queryChunk/4 {
		return string(q)
	}
	b := queryChunks.Get().(*strings.Builder)
	if b.Len()+len(q) > b.Cap() {
		// Start a new chunk. Reset lets go of the full one without
		// touching its bytes.
		b.Reset()
		b.Grow(queryChunk)
	}
	start := b.Len()
	b.Write(q)
	s := b.String()[start:]
	queryChunks.Put(b)
	return s
}
