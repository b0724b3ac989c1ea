package catalog

// Idempotency dedup window. Transaction time is system-assigned and
// append-only, so a blind retry of an acknowledged mutation would mint a
// second event and silently break declared specializations (globally
// sequential ordering, for one). Mutations therefore may carry an
// idempotency key; the key is framed into the mutation's WAL record, and
// each relation remembers a bounded window of recently applied keys with
// the element the original transaction produced. A retry bearing a known
// key returns that element without logging or applying anything — the
// original acknowledgment already covered durability.
//
// The window is rebuilt from the WAL on boot (keyed records repopulate it
// during replay), so retries survive a crash between the original ack and
// the retry. Its lifetime is bounded twice over: FIFO-capped at
// dedupWindowCap keys per relation, and implicitly by WAL truncation — a
// snapshot that truncates the log also ends the window's crash
// recoverability for the truncated prefix. Clients whose retry horizon is
// seconds sit comfortably inside both bounds.

import (
	"encoding/binary"
	"fmt"

	"repro/internal/element"
)

// dedupWindowCap bounds remembered keys per relation.
const dedupWindowCap = 4096

// opKind names a data write: the mutation commit stages, and the
// operation a dedup key was first used for — a key reused across
// operation kinds is a client bug and is rejected.
type opKind uint8

const (
	opInsert opKind = iota
	opDelete
	opModify
)

func (o opKind) String() string {
	switch o {
	case opInsert:
		return "insert"
	case opDelete:
		return "delete"
	case opModify:
		return "modify"
	}
	return "unknown"
}

// dedupHit is what the window remembers per key: the operation kind and
// the element the original transaction returned (nil for deletes).
type dedupHit struct {
	op   opKind
	elem *element.Element
}

// dedupWindow is a FIFO-bounded key → original-result map. It is
// accessed only under the owning relation's exclusive lock (mutations
// and WAL replay both hold it), so it needs no lock of its own.
type dedupWindow struct {
	m     map[string]dedupHit
	order []string // FIFO eviction order
}

func newDedupWindow() *dedupWindow {
	return &dedupWindow{m: make(map[string]dedupHit)}
}

func (w *dedupWindow) lookup(key string) (dedupHit, bool) {
	h, ok := w.m[key]
	return h, ok
}

func (w *dedupWindow) remember(key string, op opKind, el *element.Element) {
	if _, dup := w.m[key]; !dup {
		w.order = append(w.order, key)
		if len(w.order) > dedupWindowCap {
			delete(w.m, w.order[0])
			w.order = w.order[1:]
		}
	}
	w.m[key] = dedupHit{op: op, elem: el}
}

// maxIdemKeyLen bounds a key at the protocol level; longer keys are
// rejected before they reach the WAL frame.
const maxIdemKeyLen = 255

// decodeKeyed splits a replay-only keyed payload (kinds 6–8: u16 key
// length, key bytes, then the unkeyed kind's payload) into key and inner
// payload.
func decodeKeyed(b []byte) (key string, payload []byte, err error) {
	if len(b) < 2 {
		return "", nil, fmt.Errorf("catalog: short keyed payload")
	}
	n := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	if n > maxIdemKeyLen {
		return "", nil, fmt.Errorf("catalog: keyed payload key length %d exceeds %d", n, maxIdemKeyLen)
	}
	if n > len(b) {
		return "", nil, fmt.Errorf("catalog: keyed payload truncated key")
	}
	return string(b[:n]), b[n:], nil
}
