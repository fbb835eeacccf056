package chaos

import (
	"errors"
	"net"
	"sync"
	"time"
)

// ErrCut is the error surfaced when an injected mid-frame cut severs the
// connection.
var ErrCut = errors.New("chaos: connection cut mid-frame (injected)")

// timeoutError is what an injected stall surfaces: a net.Error whose
// Timeout() is true, exactly like a deadline expiry on a real conn.
type timeoutError struct{}

func (e timeoutError) Error() string   { return "chaos: injected read stall: i/o timeout" }
func (e timeoutError) Timeout() bool   { return true }
func (e timeoutError) Temporary() bool { return true }

// Wrap applies a fault to a connection. None and Refuse return the
// connection unchanged (refusals are handled at the dial layer).
func Wrap(conn net.Conn, f Fault) net.Conn {
	if f.Kind == None || f.Kind == Refuse {
		return conn
	}
	return &faultConn{Conn: conn, fault: f, closed: make(chan struct{})}
}

// faultConn injects one fault into a connection's byte streams. Offsets
// are tracked over the inbound stream, so cuts and corruption hit a
// deterministic byte of the conversation.
type faultConn struct {
	net.Conn
	fault Fault

	mu      sync.Mutex
	readOff int
	readDL  time.Time

	closed    chan struct{}
	closeOnce sync.Once
}

// SetDeadline and SetReadDeadline record the read deadline so injected
// stalls respect it, exactly as a real blocked read would.
func (c *faultConn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDL = t
	c.mu.Unlock()
	return c.Conn.SetDeadline(t)
}

func (c *faultConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDL = t
	c.mu.Unlock()
	return c.Conn.SetReadDeadline(t)
}

// Close severs the connection and unblocks any in-flight injected stall,
// so a round deadline (whose watchdog closes the conn) always terminates
// even a "stalled forever" fault.
func (c *faultConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

func (c *faultConn) Read(p []byte) (int, error) {
	switch c.fault.Kind {
	case StallRead:
		return 0, c.stall()
	case Cut:
		c.mu.Lock()
		remain := c.fault.CutAfter - c.readOff
		c.mu.Unlock()
		if remain <= 0 {
			// The far side sees the severed pipe via the Close.
			c.Conn.Close()
			return 0, ErrCut
		}
		if len(p) > remain {
			p = p[:remain]
		}
		n, err := c.Conn.Read(p)
		c.mu.Lock()
		c.readOff += n
		c.mu.Unlock()
		return n, err
	case Corrupt:
		n, err := c.Conn.Read(p)
		c.mu.Lock()
		off := c.fault.CorruptOffset - c.readOff
		c.readOff += n
		c.mu.Unlock()
		if off >= 0 && off < n {
			p[off] ^= 1 << (c.fault.CorruptBit % 8)
		}
		return n, err
	default:
		return c.Conn.Read(p)
	}
}

// stall blocks for the fault's StallDelay (zero = not at all: the
// deterministic "deadline already fired" mode), then surfaces a timeout.
// The stall ends early when the read deadline passes or the connection is
// closed — so a collector with per-phase deadlines escapes even a
// "stalled forever" agent, and one without them only escapes via its
// round watchdog.
func (c *faultConn) stall() error {
	delay := c.fault.StallDelay
	if delay > 0 {
		c.mu.Lock()
		dl := c.readDL
		c.mu.Unlock()
		if !dl.IsZero() {
			if until := time.Until(dl); until < delay {
				delay = until
			}
		}
	}
	if delay > 0 {
		t := time.NewTimer(delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-c.closed:
		}
	}
	return timeoutError{}
}
