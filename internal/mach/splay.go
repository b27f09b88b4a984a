package mach

// splayTree is the reverse (port -> entry) translation index of a
// task's name space, implemented as a top-down splay tree keyed by
// port id — the structure Mach 3.0 actually used (ipc_splay_tree)
// and a large part of why right transfer under the unique-name
// invariant was "surprisingly expensive": every transfer performs a
// splaying lookup, and every final deallocation a splaying removal,
// each a chain of pointer rotations. The [nonunique] fast path never
// touches this tree.
type splayTree struct {
	root *splayNode
	size int
}

type splayNode struct {
	key         uint32
	idx         int32
	left, right *splayNode
}

// splay rotates the node with key (or the last node on its search
// path) to the root, using the classic top-down algorithm.
func (t *splayTree) splay(key uint32) {
	if t.root == nil {
		return
	}
	var header splayNode
	l, r := &header, &header
	cur := t.root
	for {
		switch {
		case key < cur.key:
			if cur.left == nil {
				break
			}
			if key < cur.left.key {
				// Rotate right.
				y := cur.left
				cur.left = y.right
				y.right = cur
				cur = y
				if cur.left == nil {
					break
				}
			}
			// Link right.
			r.left = cur
			r = cur
			cur = cur.left
			continue
		case key > cur.key:
			if cur.right == nil {
				break
			}
			if key > cur.right.key {
				// Rotate left.
				y := cur.right
				cur.right = y.left
				y.left = cur
				cur = y
				if cur.right == nil {
					break
				}
			}
			// Link left.
			l.right = cur
			l = cur
			cur = cur.right
			continue
		}
		break
	}
	// Assemble.
	l.right = cur.left
	r.left = cur.right
	cur.left = header.right
	cur.right = header.left
	t.root = cur
}

// lookup returns the entry index for key, splaying it to the root.
func (t *splayTree) lookup(key uint32) (int32, bool) {
	if t.root == nil {
		return 0, false
	}
	t.splay(key)
	if t.root.key != key {
		return 0, false
	}
	return t.root.idx, true
}

// insert adds key -> idx; key must not already be present.
func (t *splayTree) insert(key uint32, idx int32) {
	n := &splayNode{key: key, idx: idx}
	if t.root == nil {
		t.root = n
		t.size = 1
		return
	}
	t.splay(key)
	if key < t.root.key {
		n.left = t.root.left
		n.right = t.root
		t.root.left = nil
	} else {
		n.right = t.root.right
		n.left = t.root
		t.root.right = nil
	}
	t.root = n
	t.size++
}

// remove deletes key if present.
func (t *splayTree) remove(key uint32) {
	if t.root == nil {
		return
	}
	t.splay(key)
	if t.root.key != key {
		return
	}
	if t.root.left == nil {
		t.root = t.root.right
	} else {
		right := t.root.right
		t.root = t.root.left
		t.splay(key) // splays the maximum of the left subtree up
		t.root.right = right
	}
	t.size--
}
