# Development targets. Everything is stdlib Go; no external tools needed.

GO ?= go

.PHONY: all build vet test race stress crash mvcc bitmap replica shard search wire cache cover bench heap experiments quick-experiments examples docs clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Long-running reader/writer stress under the race detector. STRESS
# scales the per-goroutine operation count (default in-test is 32).
STRESS ?= 200
stress:
	HYBRIDCAT_STRESS=$(STRESS) $(GO) test -race -run 'Concurrent|OracleStress' -count=1 ./internal/catalog/ ./internal/relstore/ ./internal/service/

# Crash matrix + fault-injection suites under the race detector: kill
# the durable catalog at every injected fault point and require recovery
# to match the acked-operations oracle, then the replay differential
# (live catalog ≡ log-only recovery ≡ snapshot-plus-tail recovery ≡
# follower ≡ import, over every logged op kind, concurrent writers and a
# failed fsync), the shred redone after a racing registration, the
# follower that refuses before registering, and the mutations that fail
# after registering — a registration whose fsync fails, a refused or
# unsynced auto-registering ingest, a follower record that fails after
# its define op — and leave no definition (DESIGN.md "Durability and
# recovery", "Record format").
crash:
	$(GO) test -race -run 'Crash|Fault|Replay|RacingRegistration|RefusesBeforeRegistering|LeavesNoDefinition' -count=1 ./...

# MVCC verification: the snapshot-isolation oracle suite, the
# post-fsync crash of every workload step (the version is durable but
# not yet published) and the acknowledgement that does not wait for the
# next writer's build, under the race detector, and the fuzz targets'
# seed corpora — the swap interleavings, the B-tree versions pinned
# across aborts and staged-chain resets, and the two codecs that decode
# bytes from other processes: snapshots' row codec and the logical log
# record codec — plus an HCSNAP03 snapshot an older build wrote, which
# must still load, the pinned Value size and kind numbers, and the
# bottom-up index build a snapshot load runs: bulk-built indexes equal
# inserted ones (a nullable indexed column among them), a duplicate in a
# unique index publishes nothing, each loaded row counts as a write, and
# the B-tree versions fuzz target started from a bulk-built tree; and
# the NULL rule on every write path: a row with a NULL in an indexed
# column has no entry after Insert, Delete, BulkLoad or Abort, so a
# unique index accepts any number of them; and the value a version
# carries (the catalog's definitions) following Commit, Abort,
# Precommit, Publish and ResetHead with the tables (DESIGN.md "MVCC
# snapshots and the lock-free read path", "Record format", "Durability
# and recovery").
mvcc:
	$(GO) test -race -run 'SnapshotIsolation|CrashMatrixSwapPoints|PostFsyncPreAck|AckDoesNotWait|ParentSnapshotLoads|ValueLayoutPinned|BulkBuild|BulkLoad|FuzzBtreeVersionsFromBulk|NullKeyedRows|AcceptsNullRows|VersionValue' -count=1 ./internal/relstore/ ./internal/catalog/
	$(GO) test -race -run 'Fuzz' -count=1 ./internal/catalog/ ./internal/baseline/ ./internal/relstore/

# Posting-list verification under the race detector: the key-list
# algebra (build, AND, object projection, membership) and its fuzz
# target's seed corpus against a map oracle, the operator matrix and
# the workload equivalence suite judging the Figure-4 pipeline against
# the DOM oracle, the recursive chase of depth-1 links (A1's contrast)
# held to the inverted-list rollup, the instance-key packing and its
# ingest bound, relstore's index-only tail scan against the row path,
# the index-only Figure-4 executor (no row reads, bounded index
# lookups, visibility per epoch), and the pinned tables and indexes,
# with elem_data_by_nval holding one entry per non-NULL nval row, none
# for the NULL ones a range scan skips (DESIGN.md "Posting lists and set
# operations", "Relational schema").
bitmap:
	$(GO) test -race -run 'KeyList|Bitmap|RecursiveChase|InstKey|SeqBound|RangeTails|ReadsNoRows|IndexOnly|TableLayoutPinned' -count=1 ./internal/catalog/ ./internal/relstore/
	$(GO) test -race -run 'ShredRefusesOrdinal' -count=1 ./internal/core/

# Replication fault suite under the race detector: the WAL-stream
# tailer driven through scripted network faults (torn responses at
# every record offset, refused connections, primary restarts,
# checkpoint-truncated logs), the group writer's batching and poison
# tests, the crash matrix inside concurrent batches, the
# retry/backoff determinism tests, and a one-repetition smoke of the R2
# writer-scaling/replica-lag experiment (DESIGN.md "Replication"). The
# filesystem crash matrices run under make crash.
replica:
	$(GO) test -race -run 'Replica|GroupCommit|ConcurrentBatches|Retry|Backoff|Do|Flaky|WALStream|WALSnapshot|Healthz|Staleness' -count=1 ./internal/replica/ ./internal/retry/ ./internal/faultio/ ./internal/wal/ ./internal/catalog/ ./internal/service/
	$(GO) run ./cmd/mdbench -exp R2 -quick

# Sharding verification under the race detector: the shard-vs-single
# equivalence oracle (identical Figure-4 results and paging boundaries
# across topologies), the rebalance crash matrix bracketing the
# routing-table flip, the live-rebalance and concurrency suites,
# cancellation through the scatter, a definition broadcast that an
# fsync failure cut short converging when re-issued
# (TestShardBroadcastReissueConverges), and the sharded wire surface:
# parity with the single-catalog service, and /metrics over both
# constructors (DESIGN.md "Sharding").
shard:
	$(GO) test -race -run 'Shard|Rebalance|Metrics(Endpoint|Disabled)' -count=1 ./internal/shard/ ./internal/service/

# Ranked-retrieval verification under the race detector: the tokenizer
# and Apply-sequence fuzz targets' seed corpora, the BM25 top-k
# brute-force and Apply-vs-rebuild property tests, the row-page diff the
# index advance reads (TableMark), the ranked equivalence suites
# (planner strategies vs the DOM oracle, 1-shard and 4-shard clusters vs
# a single catalog under globally merged statistics with writes between
# the queries, ranked paging over the wire), the index coherence oracle
# (served index vs scratch build across every mutation kind, recovery
# and a WAL-tailing follower), and the epoch-advance,
# snapshot-isolation, pinned-memory and concurrent reader/writer tests
# (DESIGN.md "Ranked retrieval").
search:
	$(GO) test -race -run 'Fuzz|TopK|Token|Stats|Apply' -count=1 ./internal/textindex/
	$(GO) test -race -run 'TableMark' -count=1 ./internal/relstore/
	$(GO) test -race -run 'Ranked|QueryLog|TextIndex' -count=1 ./internal/catalog/ ./internal/shard/ ./internal/service/ ./internal/workload/

# Wire-format verification: the hand-appended /search reply writers
# against encoding/json (the differential fuzz target's seeds under the
# race detector, then 15 s of fuzzing), the single-vs-sharded byte
# parity table with the read caches on (second replies built from
# cached, already-escaped documents) and off, the end-to-end flow, and
# the /fetch status mapping (404 missing, 500 build failure)
# (DESIGN.md "Caching & invalidation").
wire:
	$(GO) test -race -run 'FuzzSearchReplyMatchesEncodingJSON|ShardedWireParity|ServiceEndToEnd|FetchStatus' -count=1 ./internal/service/
	$(GO) test -run XXX -fuzz FuzzSearchReplyMatchesEncodingJSON -fuzztime 15s ./internal/service

# Response-cache verification under the race detector: the oracle
# holding every served response to a fresh §5 build on the same pinned
# view (caches on and off; unrelated ingest, AddAttribute, delete,
# unpublish, a view pinned before a write, a follower, a 4-shard
# cluster across a rebalance, racing writers), the JSON literal kept
# per object content, the object-ID reuse test across restarts,
# checkpoints, follower bootstrap, log import and an aborted batch,
# the CLOB-row count the stamp reads, the cache substrate, and the
# pinned operator surface (DESIGN.md "Caching & invalidation").
cache:
	$(GO) test -race -run 'TestResponseCacheOracle|TestResponseJSONFormOncePerContent|TestObjectIDsNeverReissued' -count=1 ./internal/catalog/
	$(GO) test -race -run 'TestCountPrefix' -count=1 ./internal/relstore/
	$(GO) test -race -count=1 ./internal/cache/
	$(GO) test -race -run 'TestCacheSurfacePinned' -count=1 ./internal/service/

cover:
	$(GO) test -cover ./...

# Documentation hygiene: go vet, a doc-comment lint over the swept
# packages — every exported declaration there must carry a godoc
# comment (scripts/doclint.sh) — and a check that OPERATIONS.md's flag
# table lists exactly the flags mdserver accepts (scripts/flagdoc.sh).
docs: vet
	sh scripts/doclint.sh internal/cache/*.go internal/wal/*.go internal/faultio/*.go internal/obs/*.go internal/shard/*.go internal/replica/*.go internal/retry/*.go internal/textindex/*.go internal/service/backend.go internal/service/service.go internal/catalog/*.go internal/relstore/*.go hybridcat.go
	GO=$(GO) sh scripts/flagdoc.sh

# One testing.B benchmark per experiment (see DESIGN.md).
bench:
	$(GO) test -bench=. -benchmem ./...

# In-process heap census: live heap bytes, bytes allocated while
# ingesting, relstore values and index entries per document of W1's
# corpus shape (BenchmarkIngestHeapPerDoc), and the recovery time and
# live heap per document of a checkpoint of that shape at 1 536 and
# 15 360 documents, opened with OpenDurable (BenchmarkSnapshotLoad).
heap:
	$(GO) test -run=XXX -bench='IngestHeapPerDoc|SnapshotLoad' -benchtime=1x .

# Printable tables for every figure reproduction, claim, ablation and
# durability experiment.
experiments:
	$(GO) run ./cmd/mdbench -all

quick-experiments:
	$(GO) run ./cmd/mdbench -all -quick

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/forecast
	$(GO) run ./examples/geospatial
	$(GO) run ./examples/curation
	$(GO) run ./examples/service

clean:
	$(GO) clean ./...
