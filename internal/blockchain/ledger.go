// Package blockchain implements a miniature Hyperledger-style ledger
// (paper §5.1): blocks of key-value transactions chained by hash, a
// ForkBase-native state store, and the two analytical queries of
// §5.1.2 — state scan (history of one key) and block scan (all states
// at one block). The state store, Native, re-expresses Hyperledger's
// data structures on ForkBase (Figure 7b): two levels of Map objects
// plus a Blob per state, so the block's state commitment is an FObject
// uid and every state's history is its Blob's base-version chain.
//
// Consensus is replaced by a single sequencer: the paper's §6.2
// evaluation isolates the storage component on one server, where
// consensus contributes nothing to the measured path.
package blockchain

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// Hash is a block or transaction digest.
type Hash [sha256.Size]byte

// Op is one state access within a transaction.
type Op struct {
	Key   string
	Value []byte // ignored for reads
	Read  bool
}

// Tx is one transaction against the key-value smart contract.
type Tx struct {
	Contract string
	Ops      []Op
}

func (t *Tx) hash() Hash {
	h := sha256.New()
	h.Write([]byte(t.Contract))
	var b [8]byte
	for _, op := range t.Ops {
		binary.LittleEndian.PutUint64(b[:], uint64(len(op.Key)))
		h.Write(b[:])
		h.Write([]byte(op.Key))
		if op.Read {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
			h.Write(op.Value)
		}
	}
	var out Hash
	h.Sum(out[:0])
	return out
}

// Block is one ledger entry.
type Block struct {
	Height   uint64
	PrevHash Hash
	TxRoot   Hash
	StateRef []byte // state commitment: the uid of the block's first-level Map FObject
	NumTxs   int
	Hash     Hash
}

func (b *Block) computeHash() Hash {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], b.Height)
	h.Write(buf[:])
	h.Write(b.PrevHash[:])
	h.Write(b.TxRoot[:])
	h.Write(b.StateRef)
	var out Hash
	h.Sum(out[:0])
	return out
}

// Ledger batches transactions into blocks over a Native state store.
type Ledger struct {
	state     *Native
	blockSize int
	pending   []Tx
	blocks    []*Block
}

// NewLedger returns a ledger committing a block every blockSize
// transactions (the paper uses b=50).
func NewLedger(n *Native, blockSize int) *Ledger {
	if blockSize <= 0 {
		blockSize = 50
	}
	return &Ledger{state: n, blockSize: blockSize}
}

// Submit executes a transaction: reads go to the state store, writes are
// buffered. A block commits automatically when blockSize transactions
// have accumulated.
func (l *Ledger) Submit(ctx context.Context, tx Tx) error {
	for _, op := range tx.Ops {
		if op.Read {
			if _, err := l.state.Read(ctx, op.Key); err != nil {
				return err
			}
		} else {
			l.state.BufferWrite(op.Key, op.Value)
		}
	}
	l.pending = append(l.pending, tx)
	if len(l.pending) >= l.blockSize {
		return l.CommitBlock(ctx)
	}
	return nil
}

// CommitBlock seals the pending transactions into a new block.
func (l *Ledger) CommitBlock(ctx context.Context) error {
	if len(l.pending) == 0 {
		return nil
	}
	height := uint64(len(l.blocks))
	stateRef, err := l.state.Commit(ctx, height)
	if err != nil {
		return err
	}
	blk := &Block{Height: height, StateRef: stateRef, NumTxs: len(l.pending)}
	if height > 0 {
		blk.PrevHash = l.blocks[height-1].Hash
	}
	th := sha256.New()
	for i := range l.pending {
		x := l.pending[i].hash()
		th.Write(x[:])
	}
	th.Sum(blk.TxRoot[:0])
	blk.Hash = blk.computeHash()
	l.blocks = append(l.blocks, blk)
	l.pending = l.pending[:0]
	return nil
}

// Height returns the number of committed blocks.
func (l *Ledger) Height() int { return len(l.blocks) }

// Block returns block i.
func (l *Ledger) Block(i int) *Block { return l.blocks[i] }

// VerifyChain re-computes the hash chain, detecting any tampering with
// committed blocks.
func (l *Ledger) VerifyChain() error {
	for i, b := range l.blocks {
		if b.computeHash() != b.Hash {
			return fmt.Errorf("blockchain: block %d hash mismatch", i)
		}
		if i > 0 && b.PrevHash != l.blocks[i-1].Hash {
			return fmt.Errorf("blockchain: block %d prev-hash broken", i)
		}
	}
	return nil
}
