package cluster

import (
	"encoding/binary"
	"hash/fnv"
	"time"
)

// backoffDelay computes the pause before retry attempt n (n >= 1):
// exponential growth from base, capped, with deterministic jitter in
// the upper half of the interval. The jitter is a pure function of
// (seed, key, attempt), so a re-run of the same job schedules the
// same waits — cluster dispatch stays as replayable as the
// exploration it carries — while distinct shards (distinct keys)
// still decorrelate their retries against a recovering peer.
func backoffDelay(base, cap time.Duration, attempt int, seed int64, key string) time.Duration {
	if base <= 0 || attempt < 1 {
		return 0
	}
	d := base
	for i := 1; i < attempt; i++ {
		d *= 2
		if cap > 0 && d >= cap {
			d = cap
			break
		}
	}
	if cap > 0 && d > cap {
		d = cap
	}
	// Deterministic jitter: delay in [d/2, d].
	span := d - d/2 + 1
	return d/2 + time.Duration(hash64(seed, key, attempt)%uint64(span))
}

// hash64 is the package's deterministic mixing function (FNV-1a over
// the seed, key and attempt number) behind the backoff jitter.
func hash64(seed int64, key string, attempt int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(seed))
	h.Write(buf[:])
	h.Write([]byte(key))
	binary.LittleEndian.PutUint64(buf[:], uint64(attempt))
	h.Write(buf[:])
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer. FNV-1a's low bits are linear in
// the input — the bottom bit is a plain byte parity — so reducing the
// raw sum modulo a small peer count correlates keys whose digits move
// in lockstep (a fan-out's shard keys advance seq and index together,
// which would pin every shard of a group to one peer). The finalizer
// avalanches every input bit into every output bit.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
