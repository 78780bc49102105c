package sim

// Ring is a growable FIFO queue backed by a power-of-two circular buffer.
// It replaces the append/reslice queue idiom (q = q[1:]), which under
// sustained traffic keeps regrowing and leaking backing arrays: a Ring
// reuses its buffer and only grows when the queue is genuinely deeper
// than ever before. The zero value is an empty ring.
type Ring[T any] struct {
	buf  []T
	head int
	n    int
}

// Len returns the number of queued elements.
func (r *Ring[T]) Len() int { return r.n }

// Push appends v at the tail.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// Pop removes and returns the head element. It panics on an empty ring.
func (r *Ring[T]) Pop() T {
	if r.n == 0 {
		panic("sim: Pop of empty Ring")
	}
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// At returns the i-th queued element, counting from the head.
func (r *Ring[T]) At(i int) T {
	if i < 0 || i >= r.n {
		panic("sim: Ring.At out of range")
	}
	return r.buf[(r.head+i)&(len(r.buf)-1)]
}

// Clear empties the ring, zeroing stored elements so references are
// released, but keeps the backing buffer for reuse.
func (r *Ring[T]) Clear() {
	var zero T
	for i := 0; i < r.n; i++ {
		r.buf[(r.head+i)&(len(r.buf)-1)] = zero
	}
	r.head, r.n = 0, 0
}

// grow doubles the buffer and re-linearizes the contents. It starts at
// two slots: a large fabric holds tens of thousands of rings (one per
// device service queue, three per link direction) and most never queue a
// second element, so the first push must cost what one element costs.
func (r *Ring[T]) grow() {
	size := len(r.buf) * 2
	if size < 2 {
		size = 2
	}
	nb := make([]T, size)
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = nb
	r.head = 0
}
