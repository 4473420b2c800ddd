package hotsync

import (
	"bytes"
	"testing"

	"palmsim/internal/emu"
	"palmsim/internal/palmos"
	"palmsim/internal/pdb"
)

func booted(t *testing.T) *emu.Machine {
	t.Helper()
	m, err := emu.New(emu.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Boot(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBackupCapturesSystemDatabases(t *testing.T) {
	m := booted(t)
	st, err := Backup(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{palmos.LaunchDB, palmos.MemoDB, palmos.AddressDB} {
		if _, ok := st.Find(name); !ok {
			t.Errorf("backup missing %q", name)
		}
	}
	if st.RTCBase == 0 {
		t.Error("RTC base not captured")
	}
}

func TestRestoreRoundTrip(t *testing.T) {
	src := booted(t)
	// Put a recognizable record in MemoDB.
	db, _ := src.Store.Lookup(palmos.MemoDB)
	idx, _, err := db.NewRecord(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Write(idx, 0, []byte("mark!")); err != nil {
		t.Fatal(err)
	}
	st, err := Backup(src)
	if err != nil {
		t.Fatal(err)
	}

	dst := booted(t)
	if err := Restore(dst, st); err != nil {
		t.Fatal(err)
	}
	got, ok := dst.Store.Lookup(palmos.MemoDB)
	if !ok || got.NumRecords() != 1 {
		t.Fatal("restored MemoDB missing the record")
	}
	addr, _, _ := got.RecordAddr(0)
	if string(dst.Bus.PeekBytes(addr, 5)) != "mark!" {
		t.Error("record content lost across restore")
	}
	// Imported databases read back with zeroed dates (§3.4).
	if got.CreationDate != 0 {
		t.Error("restored database should have zero creation date")
	}
	if dst.HW.RTCBase() != st.RTCBase {
		t.Error("RTC base not restored")
	}
}

func TestMarshalUnmarshal(t *testing.T) {
	st := &State{
		RTCBase: 777,
		Databases: []*pdb.Database{
			{Name: "A", Type: pdb.FourCC("data"), Records: []pdb.Record{{Data: []byte("one")}}},
			{Name: "B", CreationDate: 42},
		},
	}
	got, err := Unmarshal(st.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.RTCBase != 777 || len(got.Databases) != 2 {
		t.Fatalf("header lost: %+v", got)
	}
	a, ok := got.Find("A")
	if !ok || string(a.Records[0].Data) != "one" {
		t.Error("database A lost")
	}
	if b, _ := got.Find("B"); b.CreationDate != 42 {
		t.Error("database B lost")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		[]byte("NOTMAGIC00000000"),
	}
	for i, c := range cases {
		if _, err := Unmarshal(c); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// Truncated database section.
	st := &State{RTCBase: 1, Databases: []*pdb.Database{{Name: "X"}}}
	blob := st.Marshal()
	if _, err := Unmarshal(blob[:len(blob)-4]); err == nil {
		t.Error("truncated blob accepted")
	}
}

// FuzzUnmarshalState: device states are read from external files, so
// decoding must never panic, and any input that decodes must re-marshal
// to bytes that decode again — and from then on marshal identically.
func FuzzUnmarshalState(f *testing.F) {
	st := &State{
		RTCBase: 777,
		Databases: []*pdb.Database{
			{Name: "A", Type: pdb.FourCC("data"), Records: []pdb.Record{{Data: []byte("one")}}},
			{Name: "B", CreationDate: 42},
		},
	}
	f.Add(st.Marshal())
	f.Add((&State{}).Marshal())
	blob := st.Marshal()
	f.Add(blob[:len(blob)-4])
	f.Add([]byte("PALMSTAT"))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Unmarshal(data)
		if err != nil {
			return
		}
		out := st.Marshal()
		again, err := Unmarshal(out)
		if err != nil {
			t.Fatalf("re-marshalled state does not decode: %v", err)
		}
		if again.RTCBase != st.RTCBase || len(again.Databases) != len(st.Databases) {
			t.Fatalf("re-decoded RTC %d with %d databases, want %d with %d",
				again.RTCBase, len(again.Databases), st.RTCBase, len(st.Databases))
		}
		if !bytes.Equal(again.Marshal(), out) {
			t.Fatal("marshal is not a fixed point after one round trip")
		}
	})
}
