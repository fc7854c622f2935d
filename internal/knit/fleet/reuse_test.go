package fleet

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// reuseItem is one submission of TestFleetBatchReuse: a flow, the
// item's place in its flow, and a check word of both, so an item
// overwritten while its batch was queued or served shows.
type reuseItem struct {
	flow  uint64
	seq   int
	check uint64
}

func reuseCheck(flow uint64, seq int) uint64 {
	return flow*0x9e3779b97f4a7c15 ^ uint64(seq)*0xbf58476d1ce4e5b9
}

// arrayOf names a batch's backing array by its last element, which
// every reslice of the batch shares.
func arrayOf[T any](b []T) *T {
	if cap(b) == 0 {
		return nil
	}
	return &b[:cap(b)][cap(b)-1]
}

var errReuseKill = errors.New("seeded kill")

// TestFleetBatchReuse drives 4 shards with seeded kills and redelivery
// and checks the fleet's batch recycling: the producer never starts a
// partial batch on an array still queued or being served, every item
// reaches its handler intact, once, and in its flow's order, each
// shard's free list stays within its bound and the shard within the
// Queue+2 arrays it can hold at once, and Close loses none of the
// partial batches it flushes. Run it under -race: a batch reused too
// early is also a data race between the producer and the shard.
func TestFleetBatchReuse(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			const shards, batch, queue, items, flows = 4, 4, 2, 3001, 64
			res := buildCounter(t)

			var mu sync.Mutex
			// outstanding counts, per array, the batches handed off on it
			// and not yet done. The producer adds each hand-off; the
			// handler removes a batch when it returns nil (a kill always
			// leaves the killed item to replay, so the batch comes back).
			outstanding := map[*reuseItem]int{}
			killed := make([]map[[2]int64]bool, shards) // per shard: items killed once
			next := make([]map[uint64]int, shards)      // per shard: each flow's next seq
			for i := range killed {
				killed[i] = map[[2]int64]bool{}
				next[i] = map[uint64]int{}
			}
			freeBound := func(sh *Shard[reuseItem]) {
				if n := len(sh.free); n > queue+2 {
					t.Errorf("shard %d: free list holds %d batches, bound %d", sh.ID, n, queue+2)
				}
			}
			handler := func(sh *Shard[reuseItem], b []reuseItem) error {
				freeBound(sh)
				for i, it := range b {
					if it.check != reuseCheck(it.flow, it.seq) {
						t.Errorf("shard %d: item %+v overwritten", sh.ID, it)
					}
					key := [2]int64{int64(it.flow), int64(it.seq)}
					if rand.New(rand.NewSource(seed^int64(it.flow)<<20^int64(it.seq))).Intn(40) == 0 && !killed[sh.ID][key] {
						killed[sh.ID][key] = true
						return errReuseKill
					}
					if want := next[sh.ID][it.flow]; it.seq != want {
						t.Errorf("shard %d: flow %d served seq %d, want %d", sh.ID, it.flow, it.seq, want)
					}
					next[sh.ID][it.flow] = it.seq + 1
					if _, err := sh.Sup.Call("main", "work", 1); err != nil {
						return err
					}
					sh.Ack(i + 1)
				}
				mu.Lock()
				outstanding[arrayOf(b)]--
				mu.Unlock()
				return nil
			}
			fl, err := New[reuseItem](res, Config{Shards: shards, Batch: batch, Queue: queue, RedeliverAttempts: batch}, handler)
			if err != nil {
				t.Fatal(err)
			}

			rng := rand.New(rand.NewSource(seed))
			seqs := map[uint64]int{}
			enq := make([]uint64, shards)
			last := make([]*reuseItem, shards)
			arrays := make([]map[*reuseItem]bool, shards)
			for id := range last {
				last[id] = arrayOf(fl.pending[id])
				arrays[id] = map[*reuseItem]bool{last[id]: true}
			}
			for i := 0; i < items; i++ {
				flow := uint64(rng.Intn(flows))
				seq := seqs[flow]
				seqs[flow]++
				if err := fl.Submit(flow, reuseItem{flow, seq, reuseCheck(flow, seq)}); err != nil {
					t.Fatal(err)
				}
				id := FlowShard(flow, shards)
				freeBound(fl.shards[id])
				mu.Lock()
				if e := fl.Enqueued(id); e != enq[id] {
					enq[id] = e
					outstanding[last[id]]++
				}
				arr := arrayOf(fl.pending[id])
				n := outstanding[arr]
				mu.Unlock()
				if arr != last[id] && n != 0 {
					t.Fatalf("shard %d: new partial batch on an array with %d batches queued or being served", id, n)
				}
				last[id] = arr
				arrays[id][arr] = true
			}
			partial := 0
			for id := range last {
				partial += fl.PendingLen(id)
			}
			if partial == 0 {
				t.Fatal("no partial batch left for Close to flush")
			}
			if err := fl.Close(); err == nil {
				t.Fatal("Close: want the seeded kills' errors, got nil")
			}

			var served, redelivered uint64
			for id, sh := range fl.Shards() {
				served += sh.Served()
				redelivered += sh.Redelivered()
				if sh.Dropped() != 0 {
					t.Errorf("shard %d dropped %d items", id, sh.Dropped())
				}
				if n := len(arrays[id]); n > queue+2 {
					t.Errorf("shard %d: %d batch arrays, want at most Queue+2 = %d", id, n, queue+2)
				}
			}
			if served != items || redelivered == 0 {
				t.Errorf("served %d of %d items, redelivered %d; want all served and some redelivered", served, items, redelivered)
			}
			for flow, n := range seqs {
				if got := next[FlowShard(flow, shards)][flow]; got != n {
					t.Errorf("flow %d: served up to seq %d, submitted %d", flow, got, n)
				}
			}
		})
	}
}
