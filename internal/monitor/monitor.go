// Package monitor rebuilds the paper's monitoring plane (§3.5): a
// monitoring host that "recovers all calculated md5sums and data gathered
// from the local sensors every 20 minutes", authenticating with per-host
// keys (the SSH public-key stand-in in internal/wire) and moving only new
// file content (the rsync algorithm in internal/delta).
//
// Each monitored host runs an Agent exporting a FileStore of append-only
// logs; the Collector mirrors every agent's store and synchronises it once
// per collection round. Agent and Collector speak a small framed protocol
// over a wire.Session and therefore run identically over an in-memory pipe
// (inside the simulation) or real TCP sockets (cmd/collectord and
// cmd/nodeagent).
package monitor

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"frostlab/internal/delta"
	"frostlab/internal/wire"
)

// CollectionPeriod is the paper's cadence: every 20 minutes.
const CollectionPeriod = 20 * time.Minute

// Standard log names used by the experiment.
const (
	// MD5Log records one line per workload cycle.
	MD5Log = "md5sums.log"
	// SensorLog records lm-sensors and S.M.A.R.T. readings.
	SensorLog = "sensors.log"
)

// FileStore is a set of named append-only files. It is safe for concurrent
// use, since a TCP agent serves collections while the host keeps logging.
type FileStore struct {
	mu    sync.Mutex
	files map[string][]byte
}

// NewFileStore returns an empty store.
func NewFileStore() *FileStore {
	return &FileStore{files: make(map[string][]byte)}
}

// Append adds data to the named file, creating it if needed.
func (fs *FileStore) Append(name string, data []byte) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.files[name] = append(fs.files[name], data...)
}

// Get returns a copy of the named file's content (nil if absent).
func (fs *FileStore) Get(name string) []byte {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if data, ok := fs.files[name]; ok {
		return append([]byte(nil), data...)
	}
	return nil
}

// Put replaces the named file's content.
func (fs *FileStore) Put(name string, data []byte) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.files[name] = append([]byte(nil), data...)
}

// Names returns the sorted file names.
func (fs *FileStore) Names() []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := make([]string, 0, len(fs.files))
	for n := range fs.files {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Size returns the named file's length.
func (fs *FileStore) Size(name string) int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return len(fs.files[name])
}

// Protocol frame types.
const (
	ftList     byte = 1 // collector -> agent: list files
	ftListResp byte = 2 // agent -> collector: newline-joined names
	ftSig      byte = 3 // collector -> agent: name + signature
	ftDelta    byte = 4 // agent -> collector: name + delta
	ftBye      byte = 5 // collector -> agent: round complete
	ftError    byte = 6 // agent -> collector: error text
	// ftSigAt is ftSig with an 8-byte base offset before the signature:
	// the agent diffs only its file content from that offset on. It is
	// what keeps a retention-capped mirror (SetRetention) from paying the
	// evicted prefix as literal bytes again every round — the collector
	// asks for the suffix it actually retains.
	ftSigAt byte = 7
	// ftPing/ftPong are the keepalive health check: before reusing a
	// pooled session the collector round-trips a ping, so a connection
	// that died while parked (agent restart, injected pool fault) is
	// retired and redialled instead of failing the round's first frame.
	ftPing byte = 8
	ftPong byte = 9
)

// ErrRemote carries an agent-reported error.
var ErrRemote = errors.New("monitor: remote error")

// encodeNamed prefixes a payload with a length-prefixed name. The output
// size is known exactly, so the frame is assembled in a single allocation.
func encodeNamed(name string, payload []byte) []byte {
	out := make([]byte, 2+len(name)+len(payload))
	binary.BigEndian.PutUint16(out, uint16(len(name)))
	copy(out[2:], name)
	copy(out[2+len(name):], payload)
	return out
}

// decodeNamed splits a named payload.
func decodeNamed(p []byte) (string, []byte, error) {
	if len(p) < 2 {
		return "", nil, fmt.Errorf("monitor: named payload too short (%d bytes)", len(p))
	}
	n := int(binary.BigEndian.Uint16(p[:2]))
	if 2+n > len(p) {
		return "", nil, fmt.Errorf("monitor: name of %d bytes exceeds payload", n)
	}
	return string(p[2 : 2+n]), p[2+n:], nil
}

// Agent exports a host's FileStore to the collector.
type Agent struct {
	hostID string
	store  *FileStore
}

// NewAgent returns an agent serving the given store.
func NewAgent(hostID string, store *FileStore) *Agent {
	return &Agent{hostID: hostID, store: store}
}

// Serve answers collector requests on the session until a bye frame or a
// transport error. It returns nil on a clean bye.
func (a *Agent) Serve(sess *wire.Session) error {
	for {
		ft, payload, err := sess.Recv()
		if err != nil {
			return fmt.Errorf("monitor: agent %s receiving: %w", a.hostID, err)
		}
		switch ft {
		case ftList:
			joined := strings.Join(a.store.Names(), "\n")
			if err := sess.Send(ftListResp, []byte(joined)); err != nil {
				return err
			}
		case ftSig, ftSigAt:
			name, sigBytes, err := decodeNamed(payload)
			if err != nil {
				if serr := sess.Send(ftError, []byte(err.Error())); serr != nil {
					return serr
				}
				continue
			}
			var base int
			if ft == ftSigAt {
				if len(sigBytes) < 8 {
					if serr := sess.Send(ftError, []byte("monitor: sigAt payload too short")); serr != nil {
						return serr
					}
					continue
				}
				off := binary.BigEndian.Uint64(sigBytes)
				sigBytes = sigBytes[8:]
				if off > uint64(1<<62) {
					if serr := sess.Send(ftError, []byte("monitor: sigAt offset out of range")); serr != nil {
						return serr
					}
					continue
				}
				base = int(off)
			}
			sig, err := delta.UnmarshalSignature(sigBytes)
			if err != nil {
				if serr := sess.Send(ftError, []byte(err.Error())); serr != nil {
					return serr
				}
				continue
			}
			content := a.store.Get(name)
			if base > len(content) {
				base = len(content) // file shrank or offset raced ahead
			}
			d, err := delta.Compute(sig, content[base:])
			if err != nil {
				if serr := sess.Send(ftError, []byte(err.Error())); serr != nil {
					return serr
				}
				continue
			}
			if err := sess.Send(ftDelta, encodeNamed(name, d.Marshal())); err != nil {
				return err
			}
		case ftPing:
			if err := sess.Send(ftPong, nil); err != nil {
				return err
			}
		case ftBye:
			return nil
		default:
			if err := sess.Send(ftError, []byte(fmt.Sprintf("unknown frame type %d", ft))); err != nil {
				return err
			}
		}
	}
}

// RoundStats summarises one collection round against one host.
type RoundStats struct {
	HostID string
	At     time.Time
	Files  int
	// LiteralBytes is what actually travelled as new data.
	LiteralBytes int
	// TotalBytes is the mirrored corpus size — what a full copy would
	// have cost.
	TotalBytes int
}

// Savings returns the fraction of bytes the delta transfer avoided.
func (rs RoundStats) Savings() float64 {
	if rs.TotalBytes == 0 {
		return 0
	}
	return 1 - float64(rs.LiteralBytes)/float64(rs.TotalBytes)
}

// Collector mirrors the file stores of many hosts.
type Collector struct {
	mu        sync.Mutex
	mirrors   map[string]*FileStore
	blockSize int
	history   []RoundStats

	// samples, when set, receives every byte appended to a mirror for
	// numeric-sample extraction (see SampleDB).
	samples *SampleDB
	// retain caps each mirrored file's raw bytes; 0 means unbounded.
	retain int
	// trimmed[host][file] is how many bytes of that file's prefix the
	// retention cap has evicted — the base offset for ftSigAt rounds.
	trimmed map[string]map[string]int
}

// NewCollector returns a collector using the given delta block size
// (delta.DefaultBlockSize when 0).
func NewCollector(blockSize int) *Collector {
	if blockSize <= 0 {
		blockSize = delta.DefaultBlockSize
	}
	return &Collector{
		mirrors:   make(map[string]*FileStore),
		blockSize: blockSize,
		trimmed:   make(map[string]map[string]int),
	}
}

// WithSamples attaches a sample plane: every byte newly appended to a
// mirror is also parsed for numeric samples and stored compressed. It
// returns the collector for chaining.
func (c *Collector) WithSamples(db *SampleDB) *Collector {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.samples = db
	return c
}

// Samples returns the attached sample plane (nil if none).
func (c *Collector) Samples() *SampleDB {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.samples
}

// SetRetention caps every mirrored file at n raw bytes. When an applied
// round pushes a file past the cap, the oldest bytes are evicted down to
// the cap at a line boundary; subsequent rounds synchronise only the
// retained suffix (the ftSigAt frame), so the evicted prefix is never
// re-transferred. n <= 0 disables the cap. Already-ingested samples are
// unaffected: eviction is what makes mirrors a bounded working set while
// the SampleDB keeps the full history in compressed form.
func (c *Collector) SetRetention(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n < 0 {
		n = 0
	}
	c.retain = n
}

// MirrorBytes returns the raw bytes currently held across all mirrors —
// the quantity the retention cap bounds.
func (c *Collector) MirrorBytes() int64 {
	c.mu.Lock()
	mirrors := make([]*FileStore, 0, len(c.mirrors))
	for _, m := range c.mirrors {
		mirrors = append(mirrors, m)
	}
	c.mu.Unlock()
	var total int64
	for _, m := range mirrors {
		for _, name := range m.Names() {
			total += int64(m.Size(name))
		}
	}
	return total
}

// TrimmedBytes returns how many raw bytes retention has evicted for one
// host's file (0 if never trimmed).
func (c *Collector) TrimmedBytes(hostID, name string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.trimmed[hostID][name]
}

// setTrimmed records the eviction offset for a host's file.
func (c *Collector) setTrimmed(hostID, name string, off int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.trimmed[hostID]
	if m == nil {
		m = make(map[string]int)
		c.trimmed[hostID] = m
	}
	m[name] = off
}

// Mirror returns the collector's mirror of a host's store, creating it on
// first use.
func (c *Collector) Mirror(hostID string) *FileStore {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.mirrors[hostID]
	if !ok {
		m = NewFileStore()
		c.mirrors[hostID] = m
	}
	return m
}

// History returns all completed rounds.
func (c *Collector) History() []RoundStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]RoundStats, len(c.history))
	copy(out, c.history)
	return out
}

// CollectHost performs one collection round over an established session:
// list the agent's files, then signature/delta each one into the mirror.
// The session is left open; the agent returns from Serve after the bye.
func (c *Collector) CollectHost(sess *wire.Session, hostID string, now time.Time) (RoundStats, error) {
	return c.CollectHostContext(context.Background(), sess, hostID, now)
}

// CollectHostContext is CollectHost under a context: cancellation is
// polled between protocol phases, so a round abandoned by its deadline (or
// a daemon shutting down) stops at the next frame boundary. A session
// blocked inside a read is unblocked by the transport's deadline or by
// closing the underlying connection — both of which FleetCollector does.
func (c *Collector) CollectHostContext(ctx context.Context, sess *wire.Session, hostID string, now time.Time) (RoundStats, error) {
	return c.collectHost(ctx, sess, hostID, now, true)
}

// CollectHostKeepAlive is CollectHostContext without the closing bye
// frame: the session stays open and the agent's Serve loop keeps waiting,
// so the same authenticated connection can carry the next round. It is
// the protocol half of the FleetCollector's connection pool; the bye is
// sent when the pool retires the session.
func (c *Collector) CollectHostKeepAlive(ctx context.Context, sess *wire.Session, hostID string, now time.Time) (RoundStats, error) {
	return c.collectHost(ctx, sess, hostID, now, false)
}

func (c *Collector) collectHost(ctx context.Context, sess *wire.Session, hostID string, now time.Time, bye bool) (RoundStats, error) {
	stats := RoundStats{HostID: hostID, At: now}
	if err := ctx.Err(); err != nil {
		return stats, err
	}
	mirror := c.Mirror(hostID)
	if err := sess.Send(ftList, nil); err != nil {
		return stats, err
	}
	ft, payload, err := sess.Recv()
	if err != nil {
		return stats, err
	}
	if ft == ftError {
		return stats, fmt.Errorf("%w: %s", ErrRemote, payload)
	}
	if ft != ftListResp {
		return stats, fmt.Errorf("monitor: unexpected frame %d to list request", ft)
	}
	var names []string
	if len(payload) > 0 {
		names = splitLines(string(payload))
	}
	c.mu.Lock()
	samples, retain := c.samples, c.retain
	c.mu.Unlock()
	for _, name := range names {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		old := mirror.Get(name)
		trim := c.TrimmedBytes(hostID, name)
		sig, err := delta.NewSignature(old, c.blockSize)
		if err != nil {
			return stats, err
		}
		if trim > 0 {
			// The mirror holds only the suffix past the eviction offset;
			// ask the agent to diff from there so the evicted prefix is
			// not re-paid as literal bytes.
			payload := make([]byte, 8+len(sig.Marshal()))
			binary.BigEndian.PutUint64(payload, uint64(trim))
			copy(payload[8:], sig.Marshal())
			err = sess.Send(ftSigAt, encodeNamed(name, payload))
		} else {
			err = sess.Send(ftSig, encodeNamed(name, sig.Marshal()))
		}
		if err != nil {
			return stats, err
		}
		ft, payload, err := sess.Recv()
		if err != nil {
			return stats, err
		}
		if ft == ftError {
			return stats, fmt.Errorf("%w: %s: %s", ErrRemote, name, payload)
		}
		if ft != ftDelta {
			return stats, fmt.Errorf("monitor: unexpected frame %d to signature", ft)
		}
		rname, deltaBytes, err := decodeNamed(payload)
		if err != nil {
			return stats, err
		}
		if rname != name {
			return stats, fmt.Errorf("monitor: delta for %q, requested %q", rname, name)
		}
		d, err := delta.UnmarshalDelta(deltaBytes)
		if err != nil {
			return stats, err
		}
		updated, err := delta.Apply(old, d)
		if err != nil {
			return stats, fmt.Errorf("monitor: applying delta for %s/%s: %w", hostID, name, err)
		}
		if samples != nil {
			if len(old) > 0 && len(updated) >= len(old) && bytes.HasPrefix(updated, old) {
				// Append-only logs grow in place; parse only the new suffix.
				samples.Ingest(hostID, name, updated[len(old):])
			} else {
				// No append baseline (a file's first sync — possibly after
				// a restart with a restored sample checkpoint — or a
				// rewritten file): replay the whole mirror and let
				// timestamps dedupe against what the store already holds.
				samples.Replay(hostID, name, updated)
			}
		}
		fullLen := trim + len(updated) // the agent-side file size
		if retain > 0 && len(updated) > retain {
			cut := len(updated) - retain
			// Evict whole lines only, so the retained suffix always
			// starts at a line start (and stays parseable on replay).
			if i := indexByteFrom(updated, '\n', cut-1); i >= 0 {
				cut = i + 1
			} else {
				cut = len(updated)
			}
			c.setTrimmed(hostID, name, trim+cut)
			updated = updated[cut:]
		}
		mirror.Put(name, updated)
		stats.Files++
		stats.LiteralBytes += d.LiteralBytes()
		stats.TotalBytes += fullLen
	}
	if bye {
		if err := sess.Send(ftBye, nil); err != nil {
			return stats, err
		}
	}
	c.mu.Lock()
	c.history = append(c.history, stats)
	c.mu.Unlock()
	return stats, nil
}

// indexByteFrom returns the index of the first b at or after start
// (-1 if none). start may be any value; it is clamped to the slice.
func indexByteFrom(p []byte, b byte, start int) int {
	if start < 0 {
		start = 0
	}
	for i := start; i < len(p); i++ {
		if p[i] == b {
			return i
		}
	}
	return -1
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return append(out, s[start:])
}
