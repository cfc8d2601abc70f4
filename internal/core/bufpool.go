package core

import "sync"

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
