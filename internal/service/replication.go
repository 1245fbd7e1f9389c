package service

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/wal"
)

// Replication endpoints. The primary serves its write-ahead log as the
// replication stream — the same checksummed frames the log file holds,
// so a replica replays them through the identical recovery machinery:
//
//	GET /healthz               {"status":"ok|wedged|replica-lagging",...}
//	GET /wal/stream?from=N     raw WAL frames with seq > N
//	                           (?wait_ms=M long-polls up to M ms for new
//	                           records; 409 when a checkpoint truncated
//	                           records the caller still needs)
//	GET /wal/snapshot          bootstrap snapshot; X-WAL-Seq carries the
//	                           watermark streaming resumes from
//
// A server running as a replica (Replica set) additionally stamps every
// catalog response with X-Staleness-Seq (the replication cursor) and
// answers 503 once it trails the primary beyond MaxLag records.

// ReplicaSource is the read side the service serves from when running
// as a replica: the tailer owns the follower catalog (a mid-run
// re-bootstrap may swap it) and tracks how far behind the primary the
// replica is.
type ReplicaSource interface {
	// Catalog returns the follower catalog currently serving reads.
	Catalog() *catalog.Catalog
	// AppliedSeq is the replica's replication cursor: the last primary
	// log sequence whose effects local readers can see.
	AppliedSeq() uint64
	// PrimarySeq is the last primary log watermark the tailer observed.
	PrimarySeq() uint64
}

// cat returns the catalog handlers serve from: the tailer's current
// follower catalog on a replica, the wrapped primary catalog otherwise.
func (s *Server) cat() *catalog.Catalog {
	if s.Replica != nil {
		return s.Replica.Catalog()
	}
	return s.Cat
}

// replicaLag reports the replica's cursor, the primary watermark, and
// whether the lag between them exceeds the configured bound.
func (s *Server) replicaLag() (applied, primary uint64, over bool) {
	applied, primary = s.Replica.AppliedSeq(), s.Replica.PrimarySeq()
	over = s.MaxLag > 0 && primary > applied && primary-applied > s.MaxLag
	return applied, primary, over
}

// staleness wraps a handler with the replica read contract: every
// response carries X-Staleness-Seq, and reads are refused with 503 once
// the replica lags beyond MaxLag — a client that needs fresher data
// retries against the primary. No-op on a primary.
func (s *Server) staleness(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.Replica != nil {
			applied, primary, over := s.replicaLag()
			w.Header().Set("X-Staleness-Seq", strconv.FormatUint(applied, 10))
			if over {
				writeErr(w, http.StatusServiceUnavailable,
					fmt.Errorf("service: replica lagging: applied %d, primary %d", applied, primary))
				return
			}
		}
		h(w, r)
	}
}

// handleHealthz reports readiness: "ok" (200), "wedged" (503) when the
// durability layer refuses mutations, or "replica-lagging" (503) when a
// replica trails the primary beyond its staleness bound. Always
// answers — it is registered outside the staleness middleware — so
// orchestration can distinguish "lagging" from "down".
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	resp := map[string]any{"status": "ok"}
	status := http.StatusOK
	if err := s.backend().Wedged(); err != nil {
		resp["status"] = "wedged"
		resp["error"] = err.Error()
		status = http.StatusServiceUnavailable
	} else if s.Replica != nil {
		applied, primary, over := s.replicaLag()
		resp["applied_seq"] = applied
		resp["primary_seq"] = primary
		resp["max_lag"] = s.MaxLag
		if over {
			resp["status"] = "replica-lagging"
			status = http.StatusServiceUnavailable
		}
	} else if s.cluster != nil {
		resp["shards"] = s.cluster.Shards()
	}
	writeJSON(w, status, resp)
}

// maxStreamWait caps the ?wait_ms long poll so an abandoned poll cannot
// pin a handler goroutine indefinitely.
const maxStreamWait = 60 * time.Second

// handleWALStream serves durable log records with sequence > ?from as
// raw WAL frames (wal.EncodeRecord — identical to the on-disk format,
// torn-tolerant and checksummed per record). With ?wait_ms=M and no
// records available it long-polls commit notifications up to M ms; the
// default answers immediately, possibly empty. X-WAL-Last-Seq carries
// the log's last sequence so the caller can measure its lag. 409 means
// a checkpoint truncated records above ?from: the caller must bootstrap
// from /wal/snapshot.
func (s *Server) handleWALStream(w http.ResponseWriter, r *http.Request) {
	c := s.cat()
	qv := r.URL.Query()
	from, err := strconv.ParseUint(qv.Get("from"), 10, 64)
	if err != nil && qv.Get("from") != "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("service: bad from: %w", err))
		return
	}
	waitMS, err := queryInt(qv, "wait_ms")
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	wait := time.Duration(waitMS) * time.Millisecond
	if wait > maxStreamWait {
		wait = maxStreamWait
	}
	deadline := time.Now().Add(wait)
	for {
		// Fetch the notification channel BEFORE reading the log: a commit
		// landing between the read and the wait then still closes the
		// channel we select on, so it cannot be missed.
		notify := c.CommitNotify()
		recs, last, gap, err := c.WALSince(from)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		if gap {
			writeErr(w, http.StatusConflict,
				fmt.Errorf("service: records after %d truncated by checkpoint; bootstrap from /wal/snapshot", from))
			return
		}
		if len(recs) > 0 || time.Now().After(deadline) {
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set("X-WAL-Last-Seq", strconv.FormatUint(last, 10))
			for _, rec := range recs {
				if _, err := w.Write(wal.EncodeRecord(rec.Seq, rec.Payload)); err != nil {
					return // client went away; the tailer resumes from its cursor
				}
			}
			return
		}
		timer := time.NewTimer(time.Until(deadline))
		select {
		case <-notify:
			timer.Stop()
		case <-r.Context().Done():
			timer.Stop()
			return
		case <-timer.C:
		}
	}
}

// handleWALSnapshot serves a bootstrap snapshot for replicas that hit a
// stream gap. The X-WAL-Seq header is the watermark the snapshot
// contains; the replica resumes /wal/stream?from= there.
func (s *Server) handleWALSnapshot(w http.ResponseWriter, _ *http.Request) {
	// Buffered so a mid-save failure yields a clean error response
	// instead of a torn 200 body.
	var buf bytes.Buffer
	seq, err := s.cat().ReplicationSnapshot(&buf)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-WAL-Seq", strconv.FormatUint(seq, 10))
	_, _ = w.Write(buf.Bytes())
}
