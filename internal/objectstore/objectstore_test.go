package objectstore

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"skadi/internal/idgen"
)

func TestPutGet(t *testing.T) {
	s := New(1024, nil)
	id := idgen.Next()
	if err := s.Put(id, []byte("hello"), "raw"); err != nil {
		t.Fatalf("Put: %v", err)
	}
	data, format, err := s.Get(id)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(data, []byte("hello")) || format != "raw" {
		t.Errorf("Get = %q/%q", data, format)
	}
	if s.Used() != 5 || s.Len() != 1 {
		t.Errorf("Used=%d Len=%d", s.Used(), s.Len())
	}
}

func TestPutDuplicate(t *testing.T) {
	s := New(1024, nil)
	id := idgen.Next()
	if err := s.Put(id, []byte("a"), "raw"); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(id, []byte("b"), "raw"); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate Put = %v, want ErrExists", err)
	}
}

func TestGetMissing(t *testing.T) {
	s := New(1024, nil)
	if _, _, err := s.Get(idgen.Next()); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get missing = %v, want ErrNotFound", err)
	}
	st := s.Stats()
	if st.Misses != 1 {
		t.Errorf("Misses = %d, want 1", st.Misses)
	}
}

func TestTooLarge(t *testing.T) {
	s := New(10, nil)
	if err := s.Put(idgen.Next(), make([]byte, 11), "raw"); !errors.Is(err, ErrTooLarge) {
		t.Errorf("Put = %v, want ErrTooLarge", err)
	}
}

func TestLRUEviction(t *testing.T) {
	s := New(30, nil)
	a, b, c := idgen.Next(), idgen.Next(), idgen.Next()
	for _, id := range []idgen.ObjectID{a, b, c} {
		if err := s.Put(id, make([]byte, 10), "raw"); err != nil {
			t.Fatal(err)
		}
	}
	// Touch a so b is the LRU victim.
	if _, _, err := s.Get(a); err != nil {
		t.Fatal(err)
	}
	d := idgen.Next()
	if err := s.Put(d, make([]byte, 10), "raw"); err != nil {
		t.Fatalf("Put with eviction: %v", err)
	}
	if s.Contains(b) {
		t.Error("b should have been evicted (LRU)")
	}
	for _, id := range []idgen.ObjectID{a, c, d} {
		if !s.Contains(id) {
			t.Errorf("object %s should be resident", id.Short())
		}
	}
	if s.Stats().Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", s.Stats().Evictions)
	}
}

func TestPinPreventsEvictionAndDelete(t *testing.T) {
	s := New(20, nil)
	a, b := idgen.Next(), idgen.Next()
	if err := s.Put(a, make([]byte, 10), "raw"); err != nil {
		t.Fatal(err)
	}
	if err := s.Pin(a); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(b, make([]byte, 10), "raw"); err != nil {
		t.Fatal(err)
	}
	// Store full, a pinned, b unpinned: a must survive, b evicted.
	cID := idgen.Next()
	if err := s.Put(cID, make([]byte, 10), "raw"); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if !s.Contains(a) {
		t.Error("pinned object evicted")
	}
	if s.Contains(b) {
		t.Error("unpinned object should have been evicted")
	}
	if err := s.Delete(a); !errors.Is(err, ErrPinned) {
		t.Errorf("Delete pinned = %v, want ErrPinned", err)
	}
	if err := s.Unpin(a); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(a); err != nil {
		t.Errorf("Delete after Unpin: %v", err)
	}
}

func TestOutOfMemoryAllPinned(t *testing.T) {
	s := New(10, nil)
	a := idgen.Next()
	if err := s.Put(a, make([]byte, 10), "raw"); err != nil {
		t.Fatal(err)
	}
	if err := s.Pin(a); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(idgen.Next(), make([]byte, 5), "raw"); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("Put = %v, want ErrOutOfMemory", err)
	}
}

func TestPinNesting(t *testing.T) {
	s := New(100, nil)
	a := idgen.Next()
	if err := s.Put(a, make([]byte, 1), "raw"); err != nil {
		t.Fatal(err)
	}
	if err := s.Pin(a); err != nil {
		t.Fatal(err)
	}
	if err := s.Pin(a); err != nil {
		t.Fatal(err)
	}
	if err := s.Unpin(a); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(a); !errors.Is(err, ErrPinned) {
		t.Error("object with one remaining pin should not be deletable")
	}
	if err := s.Unpin(a); err != nil {
		t.Fatal(err)
	}
	if err := s.Unpin(a); err == nil {
		t.Error("Unpin below zero should fail")
	}
	if err := s.Delete(a); err != nil {
		t.Errorf("Delete: %v", err)
	}
}

func TestSpillOnEviction(t *testing.T) {
	spilled := make(map[idgen.ObjectID][]byte)
	s := New(10, func(id idgen.ObjectID, data []byte, format string) error {
		spilled[id] = data
		return nil
	})
	a, b := idgen.Next(), idgen.Next()
	if err := s.Put(a, []byte("0123456789"), "raw"); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(b, []byte("x"), "raw"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(spilled[a], []byte("0123456789")) {
		t.Errorf("spilled[a] = %q", spilled[a])
	}
	st := s.Stats()
	if st.Spills != 1 || st.Evictions != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestKeepsIsFalseWhileSpilling: an entry handed to the spill function
// still serves Get and Contains, but Keeps reports it as leaving; a spill
// that fails leaves it kept.
func TestKeepsIsFalseWhileSpilling(t *testing.T) {
	var s *Store
	var during [3]bool
	fail := false
	s = New(10, func(id idgen.ObjectID, _ []byte, _ string) error {
		_, _, err := s.Get(id)
		during = [3]bool{err == nil, s.Contains(id), s.Keeps(id)}
		if fail {
			return errors.New("spill refused")
		}
		return nil
	})
	a := idgen.Next()
	if err := s.Put(a, []byte("0123456789"), "raw"); err != nil {
		t.Fatal(err)
	}
	if !s.Keeps(a) {
		t.Fatal("Keeps = false before any eviction")
	}
	fail = true
	if err := s.Put(idgen.Next(), []byte("x"), "raw"); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("Put with a failing spill = %v, want ErrOutOfMemory", err)
	}
	if during != [3]bool{true, true, false} {
		t.Errorf("during spill: get, contains, keeps = %v, want [true true false]", during)
	}
	if !s.Keeps(a) {
		t.Error("Keeps = false after a failed spill left the entry resident")
	}
}

func TestSpillFailureMeansOOM(t *testing.T) {
	s := New(10, func(idgen.ObjectID, []byte, string) error {
		return errors.New("disagg memory full")
	})
	if err := s.Put(idgen.Next(), make([]byte, 10), "raw"); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(idgen.Next(), make([]byte, 10), "raw"); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("Put = %v, want ErrOutOfMemory", err)
	}
}

func TestDeleteFreesSpace(t *testing.T) {
	s := New(10, nil)
	a := idgen.Next()
	if err := s.Put(a, make([]byte, 10), "raw"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(a); err != nil {
		t.Fatal(err)
	}
	if s.Used() != 0 {
		t.Errorf("Used = %d after delete", s.Used())
	}
	if err := s.Put(idgen.Next(), make([]byte, 10), "raw"); err != nil {
		t.Errorf("Put after delete: %v", err)
	}
}

func TestClear(t *testing.T) {
	s := New(100, nil)
	a := idgen.Next()
	if err := s.Put(a, make([]byte, 10), "raw"); err != nil {
		t.Fatal(err)
	}
	if err := s.Pin(a); err != nil {
		t.Fatal(err)
	}
	s.Clear()
	if s.Len() != 0 || s.Used() != 0 {
		t.Error("Clear should drop everything, even pinned objects")
	}
}

func TestList(t *testing.T) {
	s := New(100, nil)
	want := map[idgen.ObjectID]bool{}
	for i := 0; i < 5; i++ {
		id := idgen.Next()
		want[id] = true
		if err := s.Put(id, []byte{byte(i)}, "raw"); err != nil {
			t.Fatal(err)
		}
	}
	got := s.List()
	if len(got) != 5 {
		t.Fatalf("List len = %d", len(got))
	}
	for _, id := range got {
		if !want[id] {
			t.Errorf("unexpected id %s", id.Short())
		}
	}
}

func TestSize(t *testing.T) {
	s := New(100, nil)
	a := idgen.Next()
	if err := s.Put(a, make([]byte, 42), "raw"); err != nil {
		t.Fatal(err)
	}
	if n, err := s.Size(a); err != nil || n != 42 {
		t.Errorf("Size = %d, %v", n, err)
	}
	if _, err := s.Size(idgen.Next()); !errors.Is(err, ErrNotFound) {
		t.Errorf("Size missing = %v", err)
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s := New(1<<20, nil)
	var wg sync.WaitGroup
	errCh := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := idgen.Next()
				data := []byte(fmt.Sprintf("g%d-i%d", g, i))
				if err := s.Put(id, data, "raw"); err != nil {
					errCh <- err
					return
				}
				got, _, err := s.Get(id)
				if err != nil {
					errCh <- err
					return
				}
				if !bytes.Equal(got, data) {
					errCh <- fmt.Errorf("corrupt read: %q != %q", got, data)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// Property: used bytes always equals the sum of resident object sizes, and
// never exceeds capacity, across arbitrary put/delete sequences.
func TestUsedInvariantProperty(t *testing.T) {
	f := func(sizes []uint16, deletes []bool) bool {
		s := New(4096, nil)
		var ids []idgen.ObjectID
		for i, sz := range sizes {
			id := idgen.Next()
			err := s.Put(id, make([]byte, int(sz)%512), "raw")
			if err == nil {
				ids = append(ids, id)
			}
			if i < len(deletes) && deletes[i] && len(ids) > 0 {
				_ = s.Delete(ids[0])
				ids = ids[1:]
			}
			if s.Used() > s.Capacity() {
				return false
			}
		}
		var sum int64
		for _, id := range s.List() {
			n, err := s.Size(id)
			if err != nil {
				return false
			}
			sum += n
		}
		return sum == s.Used()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
