package main

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"github.com/opencloudnext/dhl-go/internal/eth"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
	"github.com/opencloudnext/dhl-go/internal/nf"
	"github.com/opencloudnext/dhl-go/internal/swcrypto"
)

// Capacities of the buffers that carry outputs to the checks. The driver
// drains them at chunk boundaries once they are half full, with the host
// meter paused, so checking is never part of a timed segment.
const (
	checkArenaBytes = 8 << 20
	checkLogCap     = 1 << 20
)

// checker verifies the program's outputs.
type checker struct {
	w    *workload
	seed uint64

	// IPsec: copies of delivered frames since the last drain.
	frames  []byte
	offs    []int
	engine  *swcrypto.Engine
	want    []byte
	scratch []byte
	opened  uint64 // frames authenticated, decrypted and matched

	// Firewall: denies a linear ACL scan predicts for the logged sources.
	expectDenied uint64
}

func newChecker(w *workload, seed uint64) *checker {
	c := &checker{w: w, seed: seed}
	if w.kind == kindIPsec {
		c.frames = make([]byte, 0, checkArenaBytes)
		c.offs = make([]int, 0, checkArenaBytes/64)
		c.want = make([]byte, mbuf.DefaultDataRoom)
		c.scratch = make([]byte, mbuf.DefaultDataRoom)
	}
	return c
}

// recordFrames copies each frame about to be transmitted and returns a
// mark for rollback.
func (c *checker) recordFrames(pkts []*mbuf.Mbuf) int {
	mark := len(c.offs)
	for _, m := range pkts {
		c.offs = append(c.offs, len(c.frames))
		c.frames = append(c.frames, m.Data()...)
	}
	return mark
}

// rollback forgets the frames after the first kept of those recorded at
// mark: the port refused them, so they were not delivered.
func (c *checker) rollback(mark, kept int) {
	i := mark + kept
	c.frames = c.frames[:c.offs[i]]
	c.offs = c.offs[:i]
}

func (c *checker) needsDrain(src *source) bool {
	return len(c.frames) > checkArenaBytes/2 || len(src.srcLog) > checkLogCap/2
}

// drain checks every buffered output and empties the buffers.
func (c *checker) drain(src *source) error {
	if c.frames != nil {
		if err := c.openFrames(src.offered); err != nil {
			return err
		}
	}
	if src.cfg.LogSources {
		for _, ip := range src.srcLog {
			if aclDenies(ip) {
				c.expectDenied++
			}
		}
		src.srcLog = src.srcLog[:0]
	}
	return nil
}

// openFrames authenticates and decrypts every buffered ESP frame with
// swcrypto.Engine.Open under the SA keys, and matches the plaintext to
// the payload the source generated for that packet's ordinal.
func (c *checker) openFrames(offered uint64) error {
	if c.engine == nil {
		sa := nf.DefaultSA()
		eng, err := swcrypto.NewEngine(swcrypto.Config{Key: sa.Key, AuthKey: sa.AuthKey, Salt: sa.Salt})
		if err != nil {
			return err
		}
		c.engine = eng
	}
	const hdr = eth.EtherLen + eth.IPv4Len
	for i, off := range c.offs {
		end := len(c.frames)
		if i+1 < len(c.offs) {
			end = c.offs[i+1]
		}
		f := c.frames[off:end]
		if len(f) != c.w.frameSize+swcrypto.IVSize+swcrypto.TagSize {
			return fmt.Errorf("ipsec: delivered frame is %d B, want %d", len(f), c.w.frameSize+swcrypto.IVSize+swcrypto.TagSize)
		}
		if f[eth.EtherLen+9] != eth.ProtoESP {
			return fmt.Errorf("ipsec: delivered frame has IP protocol %d, want ESP", f[eth.EtherLen+9])
		}
		iv := binary.BigEndian.Uint64(f[hdr : hdr+swcrypto.IVSize])
		ct := c.scratch[:len(f)-hdr-swcrypto.IVSize-swcrypto.TagSize]
		copy(ct, f[hdr+swcrypto.IVSize:])
		var tag [swcrypto.TagSize]byte
		copy(tag[:], f[len(f)-swcrypto.TagSize:])
		if err := c.engine.Open(ct, iv, tag); err != nil {
			return fmt.Errorf("ipsec: frame with IV %d: %w", iv, err)
		}
		payload := ct[eth.UDPLen:]
		ord := binary.BigEndian.Uint64(payload[:ordinalLen])
		if ord >= offered {
			return fmt.Errorf("ipsec: decrypted ordinal %d was never offered (%d offered)", ord, offered)
		}
		want := c.want[:len(payload)]
		fillPayload(want, c.seed, ord)
		if !bytes.Equal(payload, want) {
			return fmt.Errorf("ipsec: packet %d decrypts to the wrong payload", ord)
		}
		if port := binary.BigEndian.Uint16(ct[2:4]); port != 80 {
			return fmt.Errorf("ipsec: packet %d decrypts to UDP port %d, want 80", ord, port)
		}
		c.opened++
	}
	c.frames = c.frames[:0]
	c.offs = c.offs[:0]
	return nil
}

// aclDenies is a linear first-match scan of fwRules, written apart from
// nf.Firewall so the check does not reuse the code it checks.
func aclDenies(src uint32) bool {
	for _, r := range fwRules {
		mask := ^uint32(0) << (32 - uint32(r.SrcDepth))
		if src&mask == r.SrcPrefix&mask {
			return r.Action == nf.FirewallDeny
		}
	}
	return false
}
