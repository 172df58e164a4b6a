package stream

import (
	"context"
	"net"
	"testing"
	"time"

	"stms/internal/trace"
)

// TestOutletEndsWithoutCredit: a consumer that takes exactly its budget
// — every frame the credit window allows, which is the whole stream —
// and closes without granting more credit must still be sent the end
// message; the outlet finishes cleanly instead of waiting for a resume.
func TestOutletEndsWithoutCredit(t *testing.T) {
	const cores, perCore = 2, 2 * trace.FrameCap
	spec, err := trace.ByName("web-apache")
	if err != nil {
		t.Fatal(err)
	}
	tape := trace.NewTape(spec.Scaled(0.0625), 7, cores, perCore)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- NewOutlet(TapeSource(tape), Timeouts{}).Serve(ctx, lis) }()

	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body, err := readEnvelope(conn)
	if err != nil {
		t.Fatal(err)
	}
	var h Hello
	if err := unmarshalStrictish(body, &h); err != nil {
		t.Fatal(err)
	}
	frames := uint32(cores * perCore / trace.FrameCap)
	if err := writeEnvelope(conn, Welcome{Format: string(wireMagic[:]), Version: Version, Window: frames}); err != nil {
		t.Fatal(err)
	}
	mr := newMsgReader(conn, h)
	got := make([]uint64, cores)
	for c := range got {
		for got[c] < perCore {
			m, _, err := mr.next()
			if err != nil {
				t.Fatal(err)
			}
			if m.typ != msgFrame {
				t.Fatalf("message %#x before the budget was read", m.typ)
			}
			got[m.arg] += uint64(m.records)
		}
	}
	conn.Close()

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("outlet serve: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("outlet did not finish after the consumer took its budget and closed")
	}
}
