package mpi

// Message is one frame crossing the interconnect: Data is a full envelope
// (header + payload + checksum) under the payload's tag, or an ack under
// ackTag.
type Message struct {
	Tag  int
	Data []byte
}

// Transport is the seam between the runtime's envelope protocol and
// physical delivery. Every frame crosses it — data, acks and the
// collectives' own frames. Deliver is invoked once per transmission attempt
// with the frame and a delivery callback; a faithful transport calls
// deliver exactly once, while a fault-injecting one may drop the frame
// (never call deliver), duplicate it (call deliver twice), corrupt a copy
// of Data, or call deliver later from another goroutine to model delay and
// reordering. The protocol absorbs all of these.
//
// Deliver may be called concurrently from many rank goroutines and must be
// safe for that. The deliver callback never panics and never blocks past
// world teardown, so transports may invoke it from their own goroutines.
//
// A nil Transport delivers in-process on the sending goroutine.
type Transport interface {
	Deliver(from, to int, m Message, deliver func(Message))
}

// Drainer is implemented by transports that may still hold undelivered
// messages (e.g. delayed ones) when all ranks have returned. Run calls Drain
// after the rank join and before reading the final statistics, so transports
// must deliver or discard everything in flight and stop their goroutines.
type Drainer interface {
	Drain()
}
