package alog

import (
	"bytes"
	"testing"
	"testing/quick"

	"palmsim/internal/hw"
	"palmsim/internal/palmos"
	"palmsim/internal/pdb"
)

func sampleLog() *Log {
	l := &Log{}
	l.Append(Record{Tick: 100, RTC: 10, Trap: palmos.TrapEvtEnqueuePenPoint, A: 50, B: 60})
	l.Append(Record{Tick: 102, RTC: 10, Trap: palmos.TrapEvtEnqueuePenPoint, A: hw.PenUp, B: hw.PenUp})
	l.Append(Record{Tick: 120, RTC: 11, Trap: palmos.TrapEvtEnqueueKey, A: 'h', B: 1, C: 2})
	l.Append(Record{Tick: 130, RTC: 11, Trap: palmos.TrapKeyCurrentState, A: 0, B: 5})
	l.Append(Record{Tick: 140, RTC: 11, Trap: palmos.TrapSysRandom, A: 0x1234, B: 0x5678})
	l.Append(Record{Tick: 150, RTC: 12, Trap: palmos.TrapSysRandom, A: 0, B: 0}) // zero seed
	l.Append(Record{Tick: 400, RTC: 14, Trap: palmos.TrapSysNotifyBroadcast, A: 9})
	return l
}

func TestRecordEncodeDecode(t *testing.T) {
	r := Record{Tick: 0xDEADBEEF, RTC: 0x01020304, Trap: 5, A: 6, B: 7, C: 8}
	got, err := DecodeRecord(r.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Errorf("round trip: %+v != %+v", got, r)
	}
	if _, err := DecodeRecord([]byte{1, 2, 3}); err == nil {
		t.Error("short record accepted")
	}
}

func TestMarshalUnmarshal(t *testing.T) {
	l := sampleLog()
	data := l.Marshal()
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != l.Len() {
		t.Fatalf("length %d != %d", got.Len(), l.Len())
	}
	for i := range l.Records {
		if got.Records[i] != l.Records[i] {
			t.Errorf("record %d differs", i)
		}
	}
	// Corrupt inputs.
	if _, err := Unmarshal(nil); err == nil {
		t.Error("nil accepted")
	}
	if _, err := Unmarshal([]byte("PALMALOGxxxxxxxx")); err == nil {
		t.Error("bad version accepted")
	}
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := Unmarshal(bad); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := Unmarshal(data[:20]); err == nil {
		t.Error("truncated body accepted")
	}
}

func TestFromDatabase(t *testing.T) {
	l := sampleLog()
	db := &pdb.Database{Name: "ActivityLogDB"}
	for _, r := range l.Records {
		db.Records = append(db.Records, pdb.Record{Data: r.Encode()})
	}
	got, err := FromDatabase(db)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != l.Len() {
		t.Fatalf("length %d", got.Len())
	}
	// A corrupt record fails loudly.
	db.Records = append(db.Records, pdb.Record{Data: []byte{1}})
	if _, err := FromDatabase(db); err == nil {
		t.Error("corrupt record accepted")
	}
}

func TestElapsed(t *testing.T) {
	l := sampleLog()
	if l.ElapsedTicks() != 300 {
		t.Errorf("elapsed = %d ticks, want 300", l.ElapsedTicks())
	}
	if (&Log{}).ElapsedTicks() != 0 {
		t.Error("empty log elapsed nonzero")
	}
	if s := l.ElapsedString(); s != "0:00:03" {
		t.Errorf("elapsed string = %q", s)
	}
}

func TestToReplaySplitsThreeGroups(t *testing.T) {
	r := sampleLog().ToReplay()

	// Synchronous: 2 pen + 1 key + 1 notify.
	if len(r.Synchronous) != 4 {
		t.Fatalf("synchronous = %d, want 4", len(r.Synchronous))
	}
	if r.Synchronous[0].Ev.Type != hw.EvPen || r.Synchronous[0].Ev.A != 50 {
		t.Error("pen event mangled")
	}
	if r.Synchronous[2].Ev.Type != hw.EvKey || r.Synchronous[2].Ev.A != 'h' {
		t.Error("key event mangled")
	}
	if r.Synchronous[3].Ev.Type != hw.EvNotify || r.Synchronous[3].Ev.A != 9 {
		t.Error("notify event mangled")
	}

	// KeyCurrentState queue.
	if len(r.KeyStates) != 1 || r.KeyStates[0].Bits != 5 || r.KeyStates[0].Tick != 130 {
		t.Errorf("key states = %+v", r.KeyStates)
	}

	// Seed queue excludes the zero seed (§2.4.2: "generated by non-zero
	// SysRandom calls").
	if len(r.Seeds) != 1 || r.Seeds[0] != 0x12345678 {
		t.Errorf("seeds = %#x", r.Seeds)
	}

	q := r.Queues()
	if bits, ok := q.KeyStateAt(131); !ok || bits != 5 {
		t.Error("queue lookup failed")
	}
	if _, ok := q.KeyStateAt(50); ok {
		t.Error("lookup before first sample should miss")
	}
	if s, ok := q.NextSeed(); !ok || s != 0x12345678 {
		t.Error("seed queue failed")
	}
	if _, ok := q.NextSeed(); ok {
		t.Error("seed queue not exhausted")
	}
}

// Property: marshal/unmarshal round trips arbitrary records.
func TestLogRoundTripQuick(t *testing.T) {
	f := func(recs []Record) bool {
		l := &Log{Records: recs}
		got, err := Unmarshal(l.Marshal())
		if err != nil {
			return false
		}
		if got.Len() != len(recs) {
			return false
		}
		for i := range recs {
			if got.Records[i] != recs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// FuzzUnmarshalLog: activity logs are read from external files, so
// decoding must never panic, and any input that decodes must re-marshal
// to bytes that decode to the same records — a fixed point after one
// round (trailing bytes past the claimed records are dropped).
func FuzzUnmarshalLog(f *testing.F) {
	f.Add(sampleLog().Marshal())
	f.Add((&Log{}).Marshal())
	f.Add(append(sampleLog().Marshal(), 0xFF, 0x00))
	f.Add([]byte("PALMALOG"))
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := Unmarshal(data)
		if err != nil {
			return
		}
		out := l.Marshal()
		again, err := Unmarshal(out)
		if err != nil {
			t.Fatalf("re-marshalled log does not decode: %v", err)
		}
		if again.Len() != l.Len() {
			t.Fatalf("re-decoded %d records, want %d", again.Len(), l.Len())
		}
		for i := range l.Records {
			if again.Records[i] != l.Records[i] {
				t.Fatalf("record %d = %+v, want %+v", i, again.Records[i], l.Records[i])
			}
		}
		if !bytes.Equal(again.Marshal(), out) {
			t.Fatal("marshal is not a fixed point after one round trip")
		}
	})
}
