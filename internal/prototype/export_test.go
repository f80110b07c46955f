package prototype

// HoldShard takes shard i's engine lock and returns its release, so a
// test can stand in for whatever stalls a shard under its lock — a
// synchronous GC cycle, a seal fsync, a send to a full device queue.
func (s *Sharded) HoldShard(i int) (release func()) {
	e := s.shards[i]
	e.mu.Lock()
	return e.mu.Unlock
}
