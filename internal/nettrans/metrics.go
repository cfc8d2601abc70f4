package nettrans

// Telemetry instruments for the frame transport. Handles are resolved at
// package init; the frame hot path (readFrame/commitFrame/flushBytes)
// adds only atomic increments, preserving its zero-allocation pin.

import (
	"cyclosa/internal/telemetry"
)

var (
	mDials = telemetry.Default().CounterVec(
		"cyclosa_nettrans_dials_total",
		"Outbound connection attempts by result.",
		"result")
	mDialOK    = mDials.With("ok")
	mDialError = mDials.With("error")

	mConnsRetired = telemetry.Default().Counter(
		"cyclosa_nettrans_conns_retired_total",
		"Pooled connections proactively retired after consecutive timeouts.")
	mReconnects = telemetry.Default().Counter(
		"cyclosa_nettrans_reconnects_total",
		"Pool redials replacing a dead or retired connection (dials after the first per peer).")

	mFramesRead = telemetry.Default().Counter(
		"cyclosa_nettrans_frames_read_total",
		"Frames read off the wire (all connection roles).")
	mReadBytes = telemetry.Default().Counter(
		"cyclosa_nettrans_read_bytes_total",
		"Bytes read off the wire, headers included.")
	mFramesWritten = telemetry.Default().Counter(
		"cyclosa_nettrans_frames_written_total",
		"Frames committed into the coalescing write queue.")
	mFlushes = telemetry.Default().Counter(
		"cyclosa_nettrans_flushes_total",
		"Group-commit batch writes to the socket; frames_written/flushes is the achieved coalescing ratio.")
	mWrittenBytes = telemetry.Default().Counter(
		"cyclosa_nettrans_written_bytes_total",
		"Bytes written to the socket, headers included.")

	mStreamsInFlight = telemetry.Default().Gauge(
		"cyclosa_nettrans_streams_in_flight",
		"Request streams awaiting a response across all pools.")

	mThrottledRecords = telemetry.Default().Counter(
		"cyclosa_nettrans_throttled_records_total",
		"Over-quota data-frame records shed by per-client admission: sequence number consumed without decryption, refused with a throttled error frame.")
)
