package jsontext

import "testing"

// Ledger is the pool ledger of chunk_test.go, for the package's
// external tests.
type Ledger = poolLedger

// NewLedger returns a pool whose Gets and Puts the ledger records.
func NewLedger(t *testing.T) (*ChunkPool, *Ledger) { return newLedger(t) }

// Live is the number of buffers drawn and not yet Put back.
func (l *poolLedger) Live() int { return len(l.owner) }

// Peak is the most buffers that were ever live at once.
func (l *poolLedger) Peak() int { return l.peak }

// NextSafeCut returns the index just past the first safe newline of
// data at or past from, or -1 when data decides none.
func NextSafeCut(data []byte, from int) int {
	s := cutScan{from: from}
	return s.next(data)
}

// RefDepths is the byte scanner of chunk_test.go, the oracle of the
// cut rule.
var RefDepths = refDepths
