fn main() {
    alpha::from_own_bin();
}
