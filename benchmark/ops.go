package main

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"neobft/internal/chaos"
	"neobft/internal/kvstore"
	"neobft/internal/wire"
	"neobft/internal/ycsb"
)

// opSize is the echo request size the paper's §6.2 uses.
const opSize = 64

// opSource generates one connection's operations from the workload seed
// and checks the replies. next is called by the connection's issuing
// goroutine; verify is called once per operation, in issue order, by its
// completing goroutine (reply is nil for an operation that failed).
type opSource interface {
	next() []byte
	verify(op, reply []byte) bool
}

// connSeed spreads the workload seed over connections.
func connSeed(seed int64, conn int) int64 { return seed*7919 + int64(conn) }

// echoSource issues random 64-byte requests; the echo app must return
// each unchanged.
type echoSource struct{ rng *rand.Rand }

func newEchoSource(seed int64, conn int) *echoSource {
	return &echoSource{rng: rand.New(rand.NewSource(connSeed(seed, conn)))}
}

func (s *echoSource) next() []byte {
	op := make([]byte, opSize)
	s.rng.Read(op)
	return op
}

func (s *echoSource) verify(op, reply []byte) bool { return bytes.Equal(op, reply) }

// chaosSource issues echo requests that carry a (client, seq) identity,
// so chaos.Check can match acknowledgements against replica histories.
// The checker assumes each client issues seq n+1 only after seq n was
// acknowledged; with a pipelined window that holds per window lane, so
// every lane of a connection is its own checker client.
type chaosSource struct {
	conn, window int
	seq          uint64
	acks         *chaos.AckRecorder
}

func (s *chaosSource) next() []byte {
	lane := uint32(s.conn*s.window) + uint32(s.seq%uint64(s.window))
	op := chaos.EncodeOp(lane, s.seq, opSize)
	s.seq++
	return op
}

func (s *chaosSource) verify(op, reply []byte) bool {
	if !bytes.Equal(op, reply) {
		return false
	}
	lane, seq, _ := chaos.DecodeOp(op)
	s.acks.Record(lane, seq)
	return true
}

// YCSB-A over 10 000 preloaded records, as ISSUE 11 sizes it.
func ycsbWorkload() ycsb.Workload {
	w := ycsb.WorkloadA()
	w.RecordCount = 10_000
	return w
}

// ycsbSource draws operations from the repo's YCSB generator and makes
// them checkable. An update is moved onto a record this connection owns
// (record index ≡ conn mod conns) and its value is stamped: owner (conn+1,
// u32), a per-record version (u64) and a CRC of the rest (u32) over the
// first 16 bytes. Any value read must then be the preloaded one or carry
// the record owner's stamp with a matching CRC, and a read of an owned
// record must return a version no older than the last update acknowledged
// before the read was issued and no newer than the last one issued:
// read-your-write, checked from the client side only.
type ycsbSource struct {
	conn, conns int
	wl          ycsb.Workload
	gen         *ycsb.Generator
	preloaded   []byte // the value ycsb.Load gives every record

	mu       sync.Mutex
	issued   map[int]uint64 // own record → last version issued
	acked    map[int]uint64 // own record → last version acknowledged
	inflight []ycsbPending  // issue order
}

type ycsbPending struct {
	record int
	put    bool
	ver    uint64 // put: version written; get: version acknowledged at issue
}

func newYCSBSource(seed int64, conn, conns int) *ycsbSource {
	wl := ycsbWorkload()
	s := &ycsbSource{
		conn: conn, conns: conns, wl: wl,
		gen:       ycsb.NewGenerator(wl, connSeed(seed, conn)),
		preloaded: make([]byte, wl.FieldLength),
		issued:    map[int]uint64{},
		acked:     map[int]uint64{},
	}
	for i := range s.preloaded {
		s.preloaded[i] = byte('a' + i%26)
	}
	return s
}

func stampCRC(value []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(value[:12]), crc32.IEEETable, value[16:])
}

func (s *ycsbSource) next() []byte {
	r := wire.NewReader(s.gen.Next())
	code := r.U8()
	record, _ := strconv.Atoi(string(r.VarBytes()[len("user"):])) // ycsb.Key format
	s.mu.Lock()
	defer s.mu.Unlock()
	if code == kvstore.OpGet {
		s.inflight = append(s.inflight, ycsbPending{record: record, ver: s.acked[record]})
		return kvstore.EncodeGet(ycsb.Key(record))
	}
	record = record - record%s.conns + s.conn
	if record >= s.wl.RecordCount {
		record -= s.conns
	}
	value := append([]byte(nil), r.VarBytes()...)
	ver := s.issued[record] + 1
	s.issued[record] = ver
	binary.LittleEndian.PutUint32(value, uint32(s.conn+1))
	binary.LittleEndian.PutUint64(value[4:], ver)
	binary.LittleEndian.PutUint32(value[12:], stampCRC(value))
	s.inflight = append(s.inflight, ycsbPending{record: record, put: true, ver: ver})
	return kvstore.EncodePut(ycsb.Key(record), value)
}

func (s *ycsbSource) verify(op, reply []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.inflight[0]
	s.inflight = s.inflight[1:]
	if reply == nil {
		return false
	}
	if p.put {
		s.acked[p.record] = p.ver
		return len(reply) == 1 && reply[0] == 1 // the record existed
	}
	value, found := kvstore.DecodeGetResult(reply)
	if !found || len(value) != s.wl.FieldLength {
		return false
	}
	own := p.record%s.conns == s.conn
	if bytes.Equal(value, s.preloaded) {
		return !own || p.ver == 0 // no update of ours was acknowledged before the read
	}
	owner := int(binary.LittleEndian.Uint32(value)) - 1
	if owner != p.record%s.conns || binary.LittleEndian.Uint32(value[12:]) != stampCRC(value) {
		return false
	}
	ver := binary.LittleEndian.Uint64(value[4:])
	return !own || (ver >= p.ver && ver <= s.issued[p.record])
}

// arrivals returns one connection's open-loop schedule: Poisson arrival
// times at perConnRate ops/s as nanosecond offsets from the start of
// load, covering total.
func arrivals(seed int64, conn int, perConnRate float64, total time.Duration) []int64 {
	rng := rand.New(rand.NewSource(connSeed(seed, conn) ^ 0x6f70656e)) // "open"
	mean := float64(time.Second) / perConnRate
	var out []int64
	for t := rng.ExpFloat64() * mean; t < float64(total); t += rng.ExpFloat64() * mean {
		out = append(out, int64(t))
	}
	return out
}
